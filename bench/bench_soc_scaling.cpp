// SoC-scaling study (§IV: "its configurability permits mixing
// Tiny-Counter and Full-Counter monitors within the same SoC, tailoring
// overhead and detection granularity to each subordinate's
// requirements"): total monitoring area for an SoC with N monitored
// endpoints under three deployment policies, plus a live simulation of
// several independently monitored endpoints recovering concurrently.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string_view>
#include <vector>

#include "area/area_model.hpp"
#include "bench_util.hpp"
#include "sim/logger.hpp"
#include "soc/builder.hpp"
#include "soc/topologies.hpp"

using area::paper_config_area;
using sim::sched::SchedPolicy;
using tmu::Variant;

namespace {

/// Deployment policies for an SoC with n endpoints, of which 25% are
/// safety-critical (Fc-grade) and the rest best-effort.
double policy_all_fc(unsigned n) {
  return n * paper_config_area(Variant::kFullCounter, 16, 1, false);
}
double policy_all_tc_pre(unsigned n) {
  return n * paper_config_area(Variant::kTinyCounter, 16, 32, true);
}
double policy_mixed(unsigned n) {
  const unsigned critical = (n + 3) / 4;
  return critical * paper_config_area(Variant::kFullCounter, 16, 1, false) +
         (n - critical) *
             paper_config_area(Variant::kTinyCounter, 16, 32, true);
}

void print_area_table() {
  bench::header("SoC scaling — total monitor area vs. endpoint count",
                "16 outstanding per endpoint; mixed = 25% Fc (critical) + "
                "75% Tc+Pre (best effort), the paper's §IV deployment");
  std::printf("%10s %14s %14s %14s %12s\n", "endpoints", "all-Fc (um2)",
              "mixed (um2)", "all-Tc+Pre", "mixed save");
  bench::rule(70);
  for (unsigned n : {1u, 2u, 4u, 8u, 16u, 32u}) {
    const double fc = policy_all_fc(n);
    const double mixed = policy_mixed(n);
    const double tcp = policy_all_tc_pre(n);
    std::printf("%10u %14.0f %14.0f %14.0f %11.0f%%\n", n, fc, mixed, tcp,
                100.0 * (1 - mixed / fc));
  }
  bench::rule(70);
}

/// Live check: four independently monitored endpoints, two of which
/// fail simultaneously; each TMU recovers its own endpoint while the
/// healthy ones keep completing traffic.
void run_concurrent_recovery() {
  constexpr int kEndpoints = 4;
  std::vector<std::unique_ptr<bench::IpBench>> eps;
  for (int i = 0; i < kEndpoints; ++i) {
    tmu::TmuConfig cfg;
    cfg.variant = i < 1 ? Variant::kFullCounter : Variant::kTinyCounter;
    cfg.tc_total_budget = 150;
    cfg.adaptive.enabled = true;
    eps.push_back(std::make_unique<bench::IpBench>(cfg));
    axi::RandomTrafficConfig rc;
    rc.enabled = true;
    rc.p_new_txn = 0.2;
    rc.len_max = 7;
    eps.back()->gen.set_random(rc);
  }
  // One shared wall clock: step all endpoint benches in lockstep.
  eps[0]->inj_s.arm(fault::FaultPoint::kBValidStuck, 200);
  eps[2]->inj_s.arm(fault::FaultPoint::kAwReadyStuck, 200);
  for (int cycle = 0; cycle < 3000; ++cycle) {
    for (auto& ep : eps) ep->s.step();
    if (cycle == 1000) {
      eps[0]->inj_s.disarm();
      eps[2]->inj_s.disarm();
    }
  }
  std::printf("\nconcurrent-recovery check (4 endpoints, 2 failing):\n");
  for (int i = 0; i < kEndpoints; ++i) {
    std::printf("  ep%d (%s): %zu txns, %zu faults, %llu recoveries\n", i,
                to_string(eps[i]->tmu.config().variant),
                eps[i]->gen.completed(), eps[i]->tmu.fault_log().size(),
                static_cast<unsigned long long>(eps[i]->tmu.recoveries()));
  }
  std::printf("  (failing endpoints recovered; healthy endpoints "
              "unaffected)\n");
}

void BM_PolicyEval(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy_mixed(32));
  }
}
BENCHMARK(BM_PolicyEval);

// ------------------------------------------------------------------
// Timing: each table cell warms its netlist with untimed cycles, then
// times kReps back-to-back runs of kCycles on it and prints their
// median with the min and max, so a cell shows its own spread.
// ------------------------------------------------------------------

constexpr std::uint64_t kWarmCycles = 1000;
constexpr std::uint64_t kCycles = 4000;
constexpr int kReps = 5;

struct Rate {
  double median, min, max;  ///< cycles/s
};

Rate time_rate(sim::Simulator& s) {
  s.run(kWarmCycles);
  std::array<double, kReps> r{};
  for (double& x : r) {
    const auto t0 = std::chrono::steady_clock::now();
    s.run(kCycles);
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    x = static_cast<double>(kCycles) / dt.count();
  }
  std::sort(r.begin(), r.end());
  return {r[kReps / 2], r.front(), r.back()};
}

/// "median [min-max]" in k cycles/s, padded to `width`.
void print_rate(const Rate& r, int width) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1fk [%.1f-%.1f]", r.median / 1e3,
                r.min / 1e3, r.max / 1e3);
  std::printf(" %*s", width, buf);
}

// ------------------------------------------------------------------
// Kernel scaling knee: synthetic N-manager x M-subordinate crossbar
// SoCs beyond the paper topology, under both schedulers (full sweep /
// event-driven). With only a fraction of managers active, the
// event-driven kernel's settle cost tracks activity: the crossbar's
// per-port shards wake per port, so idle ports cost nothing.
// ------------------------------------------------------------------

/// n managers -> one crossbar -> m memory subordinates, each
/// subordinate owning a 64 KiB window; `active` managers generate
/// random traffic, the rest idle (quiet endpoints of a big SoC). The
/// topology is the shared soc::grid_desc() — this bench only picks the
/// scheduler policy per variant.
std::unique_ptr<soc::Soc> make_grid(unsigned n_mgr, unsigned n_sub,
                                    unsigned active, SchedPolicy policy) {
  soc::SocDesc d = soc::grid_desc(n_mgr, n_sub, active);
  d.policy = policy;
  return soc::SocBuilder::build(d);
}

std::size_t grid_completed(soc::Soc& g) {
  std::size_t n = 0;
  for (const soc::ManagerDesc& m : g.desc().managers) {
    n += g.get<axi::TrafficGenerator>(m.name).completed();
  }
  return n;
}

Rate grid_rate(unsigned n_mgr, unsigned n_sub, unsigned active,
               SchedPolicy policy) {
  return time_rate(make_grid(n_mgr, n_sub, active, policy)->sim());
}

void print_scaling_knee() {
  bench::header(
      "Kernel scaling knee — managers x subordinates, 25% managers active",
      "event-driven settle cost tracks activity; the sharded crossbar "
      "wakes per port");
  std::printf("%6s %6s %7s %24s %24s %7s\n", "mgrs", "subs", "active",
              "full sweep", "event-driven", "gain");
  bench::rule(80);
  const unsigned grid[][2] = {{2, 2}, {4, 3}, {8, 6}, {16, 12}, {32, 24}};
  for (const auto& [n_mgr, n_sub] : grid) {
    const unsigned active = n_mgr >= 4 ? n_mgr / 4 : 1;
    const Rate full =
        grid_rate(n_mgr, n_sub, active, SchedPolicy::kFullSweep);
    const Rate event =
        grid_rate(n_mgr, n_sub, active, SchedPolicy::kEventDriven);
    std::printf("%6u %6u %7u", n_mgr, n_sub, active);
    print_rate(full, 24);
    print_rate(event, 24);
    std::printf(" %6.2fx\n", event.median / full.median);
  }
  bench::rule(80);
  std::printf("(k cycles/s, median [min-max] of %d timed %llu-cycle runs "
              "after %llu untimed; gain = event-driven vs full sweep, "
              "medians)\n",
              kReps, static_cast<unsigned long long>(kCycles),
              static_cast<unsigned long long>(kWarmCycles));
}

// ------------------------------------------------------------------
// Idle-port sweep: a fixed amount of traffic (8 active managers) on ever
// wider crossbars. The shards scan only the internal wires their
// occupancy masks mark and the edge commit visits only live manager
// ports, so the per-cycle cost should grow far more slowly than the
// port count.
// ------------------------------------------------------------------

void print_idle_port_sweep() {
  bench::header(
      "Idle-port sweep — 8 active managers on ever wider crossbars",
      "event-driven + sharded crossbar; the idle ports add module count, "
      "not per-cycle crossbar work");
  std::printf("%6s %6s %7s %7s %24s %11s %12s\n", "mgrs", "subs", "ports",
              "active", "cycles/s", "ns/cycle", "cost vs 1st");
  bench::rule(80);
  constexpr unsigned kActive = 8;
  const unsigned grid[][2] = {{32, 24}, {64, 48}, {128, 96}};
  double first_ns = 0;
  for (const auto& [n_mgr, n_sub] : grid) {
    const Rate rate =
        grid_rate(n_mgr, n_sub, kActive, SchedPolicy::kEventDriven);
    const double ns = 1e9 / rate.median;
    if (first_ns == 0) first_ns = ns;
    std::printf("%6u %6u %7u %7u", n_mgr, n_sub, n_mgr + n_sub, kActive);
    print_rate(rate, 24);
    std::printf(" %11.0f %11.2fx\n", ns, ns / first_ns);
  }
  bench::rule(80);
  std::printf("(ports grow 4x from the first row to the last; ns/cycle and "
              "cost vs 1st = median ns/cycle relative to the 32x24 row)\n");
}

// ------------------------------------------------------------------
// Hierarchy dimension: the same leaf count flat vs regrouped behind
// latency-1 ID-remapping bridges (soc::hier_grid_desc). Two effects
// compete: each cluster adds a bridge + nested crossbar (more modules,
// two extra cycles per crossing), but the root crossbar shrinks from
// N x M to N x C ports and idle clusters sit entirely behind a single
// quiet bridge, which the event-driven kernel never wakes.
// ------------------------------------------------------------------

std::unique_ptr<soc::Soc> make_hgrid(unsigned n_mgr, unsigned n_cluster,
                                     unsigned per_cluster, unsigned active,
                                     SchedPolicy policy) {
  soc::SocDesc d = soc::hier_grid_desc(n_mgr, n_cluster, per_cluster, active);
  d.policy = policy;
  return soc::SocBuilder::build(d);
}

void print_hierarchy_knee() {
  bench::header(
      "Hierarchy dimension — flat crossbar vs 2-level clusters, same leaves",
      "hier = leaves regrouped behind latency-1 ID-remapping bridges; "
      "25% managers active, event-driven + sharded crossbars");
  std::printf("%6s %7s %24s %14s %24s %8s\n", "mgrs", "leaves", "flat NxM",
              "hier clusters", "hier", "vs flat");
  bench::rule(88);
  // {n_mgr, n_cluster, per_cluster}: leaf counts match the flat grid
  // rows (8x6, 16x12, 32x24 — the knee table above).
  const unsigned grid[][3] = {{8, 2, 3}, {16, 4, 3}, {32, 8, 3}};
  for (const auto& [n_mgr, n_cluster, per] : grid) {
    const unsigned n_sub = n_cluster * per;
    const unsigned active = n_mgr >= 4 ? n_mgr / 4 : 1;
    const Rate flat =
        grid_rate(n_mgr, n_sub, active, SchedPolicy::kEventDriven);
    const Rate hier = time_rate(
        make_hgrid(n_mgr, n_cluster, per, active, SchedPolicy::kEventDriven)
            ->sim());
    char shape[32];
    std::snprintf(shape, sizeof shape, "%ux(%ux%u)", n_mgr, n_cluster, per);
    std::printf("%6u %7u", n_mgr, n_sub);
    print_rate(flat, 24);
    std::printf(" %14s", shape);
    print_rate(hier, 24);
    std::printf(" %7.2fx\n", hier.median / flat.median);
  }
  bench::rule(88);
  std::printf("(k cycles/s, median [min-max]; same managers, traffic and "
              "leaf address map in both shapes)\n");
}

void BM_GridSoc(benchmark::State& state) {
  const unsigned n_mgr = static_cast<unsigned>(state.range(0));
  const unsigned n_sub = static_cast<unsigned>(state.range(1));
  const SchedPolicy policy = state.range(2) == 0 ? SchedPolicy::kFullSweep
                                                 : SchedPolicy::kEventDriven;
  const auto g = make_grid(n_mgr, n_sub, n_mgr >= 4 ? n_mgr / 4 : 1, policy);
  for (auto _ : state) {
    g->sim().run(100);
  }
  state.SetLabel(sim::sched::to_string(policy));
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 100.0,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GridSoc)
    ->Args({4, 3, 0})
    ->Args({4, 3, 1})
    ->Args({16, 12, 0})
    ->Args({16, 12, 1})
    ->Args({32, 24, 0})
    ->Args({32, 24, 1})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

/// Two-level counterpart of BM_GridSoc: {n_mgr, n_cluster, per_cluster,
/// policy}; leaf counts mirror the flat rows so the results carry the
/// flat-vs-hier trajectory.
void BM_HGridSoc(benchmark::State& state) {
  const unsigned n_mgr = static_cast<unsigned>(state.range(0));
  const unsigned n_cluster = static_cast<unsigned>(state.range(1));
  const unsigned per = static_cast<unsigned>(state.range(2));
  const SchedPolicy policy = state.range(3) == 0 ? SchedPolicy::kFullSweep
                                                 : SchedPolicy::kEventDriven;
  const auto g = make_hgrid(n_mgr, n_cluster, per,
                            n_mgr >= 4 ? n_mgr / 4 : 1, policy);
  for (auto _ : state) {
    g->sim().run(100);
  }
  state.SetLabel(std::string(sim::sched::to_string(policy)) + "/bridged");
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 100.0,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HGridSoc)
    ->Args({16, 4, 3, 0})
    ->Args({16, 4, 3, 1})
    ->Args({32, 8, 3, 1})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

/// CI does-it-run gate (`--smoke`): small grids, few cycles, and a
/// determinism check — identically seeded grids must complete exactly
/// the same traffic under the event-driven and the full-sweep kernel.
int run_smoke() {
  int failures = 0;
  for (const auto& [n_mgr, n_sub] : {std::pair{4u, 3u}, std::pair{8u, 6u}}) {
    const unsigned active = n_mgr / 4;
    const auto event =
        make_grid(n_mgr, n_sub, active, SchedPolicy::kEventDriven);
    const auto sweep = make_grid(n_mgr, n_sub, active, SchedPolicy::kFullSweep);
    event->sim().run(500);
    sweep->sim().run(500);
    const std::size_t done = grid_completed(*event);
    const bool ok = grid_completed(*sweep) == done && done > 0;
    std::printf("smoke %ux%u: event=%zu full=%zu %s\n", n_mgr, n_sub, done,
                grid_completed(*sweep), ok ? "OK" : "MISMATCH");
    if (!ok) ++failures;
  }
  // Hierarchy: both schedulers must complete identical traffic through
  // the bridged 2-level grid (the bridge is in the deterministic path).
  const auto hev = make_hgrid(8, 2, 3, 2, SchedPolicy::kEventDriven);
  const auto hfs = make_hgrid(8, 2, 3, 2, SchedPolicy::kFullSweep);
  hev->sim().run(500);
  hfs->sim().run(500);
  const std::size_t hdone = grid_completed(*hev);
  const bool hok = grid_completed(*hfs) == hdone && hdone > 0;
  std::printf("smoke 8x(2x3) hier: event=%zu full=%zu %s\n", hdone,
              grid_completed(*hfs), hok ? "OK" : "MISMATCH");
  if (!hok) ++failures;
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  sim::global_log_level() = sim::LogLevel::kOff;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") return run_smoke();
  }
  // TMU_SCALING_REPORT=0 skips the printed tables, for a run of the
  // registered benchmarks only.
  const char* rep = std::getenv("TMU_SCALING_REPORT");
  if (rep == nullptr || std::string_view(rep) != "0") {
    print_area_table();
    run_concurrent_recovery();
    print_scaling_knee();
    print_idle_port_sweep();
    print_hierarchy_knee();
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
