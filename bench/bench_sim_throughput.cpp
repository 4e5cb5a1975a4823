// Simulator sanity benchmark: cycles/second of the cycle-accurate model
// at IP level and full-system level, under both settle scheduling
// policies (google-benchmark timing; arg 0 = full sweep, arg 1 =
// event-driven). A chrono-based preamble prints the full-sweep vs
// event-driven speedup per workload — the idle-heavy system workload is
// the headline: timeout monitoring is mostly idle by construction, so
// settle cost proportional to toggled wires is where the win lives.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "area/area_model.hpp"
#include "bench_util.hpp"
#include "sim/logger.hpp"
#include "soc/builder.hpp"
#include "soc/topologies.hpp"

namespace {

using sim::sched::SchedPolicy;

SchedPolicy policy_arg(const benchmark::State& state) {
  return state.range(0) == 0 ? SchedPolicy::kFullSweep
                             : SchedPolicy::kEventDriven;
}

void label_policy(benchmark::State& state) {
  state.SetLabel(sim::sched::to_string(policy_arg(state)));
}

axi::RandomTrafficConfig ip_traffic() {
  axi::RandomTrafficConfig rc;
  rc.enabled = true;
  rc.p_new_txn = 0.3;
  rc.len_max = 15;
  return rc;
}

axi::RandomTrafficConfig dram_traffic() {
  axi::RandomTrafficConfig rc;
  rc.enabled = true;
  rc.p_new_txn = 0.2;
  rc.addr_min = soc::CheshireMap::kDramBase;
  rc.addr_max = soc::CheshireMap::kDramBase + 0xFFF8;
  return rc;
}

/// The Cheshire SoC with adaptive budgets under `policy`, the CVA6
/// stand-ins driving DRAM traffic unless `idle`.
std::unique_ptr<soc::Soc> cheshire(SchedPolicy policy, bool idle) {
  tmu::TmuConfig cfg;
  cfg.adaptive.enabled = true;
  soc::SocDesc d = soc::cheshire_desc(cfg);
  d.policy = policy;
  std::unique_ptr<soc::Soc> sys = soc::SocBuilder::build(d);
  if (!idle) {
    sys->get<axi::TrafficGenerator>("cva6_0").set_random(dram_traffic());
    sys->get<axi::TrafficGenerator>("cva6_1").set_random(dram_traffic());
  }
  return sys;
}

void BM_IpLevelSim(benchmark::State& state) {
  tmu::TmuConfig cfg;
  cfg.adaptive.enabled = true;
  soc::SocDesc d = soc::ip_testbench_desc(cfg);
  d.policy = policy_arg(state);
  bench::IpBench b(d);
  b.gen.set_random(ip_traffic());
  for (auto _ : state) {
    b.s.run(100);
  }
  label_policy(state);
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 100.0,
      benchmark::Counter::kIsRate);
  state.counters["txns"] = static_cast<double>(b.gen.completed());
}
BENCHMARK(BM_IpLevelSim)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_SystemLevelSim(benchmark::State& state) {
  const auto sys = cheshire(policy_arg(state), /*idle=*/false);
  for (auto _ : state) {
    sys->sim().run(100);
  }
  label_policy(state);
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 100.0,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SystemLevelSim)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// The idle-heavy workload: the full SoC with no traffic at all — pure
// timeout monitoring, which is what the TMU does for most of its life.
void BM_SystemIdleSim(benchmark::State& state) {
  const auto sys = cheshire(policy_arg(state), /*idle=*/true);
  for (auto _ : state) {
    sys->sim().run(100);
  }
  label_policy(state);
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 100.0,
      benchmark::Counter::kIsRate);
  state.counters["module_evals/cycle"] =
      static_cast<double>(sys->sim().module_evals()) /
      static_cast<double>(sys->sim().cycle());
}
BENCHMARK(BM_SystemIdleSim)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_AreaModelEval(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(area::paper_config_area(
        tmu::Variant::kFullCounter, 128, 32, true));
  }
}
BENCHMARK(BM_AreaModelEval);

// ------------------------------------------------------------------
// Speedup report: one fixed-cycle chrono measurement per (workload,
// policy), so the event-driven win is a single printed number.
// ------------------------------------------------------------------

double measure_system_rate(SchedPolicy policy, bool idle,
                           std::uint64_t cycles) {
  const auto sys = cheshire(policy, idle);
  const auto t0 = std::chrono::steady_clock::now();
  sys->sim().run(cycles);
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  return static_cast<double>(cycles) / dt.count();
}

void run_speedup_report() {
  constexpr std::uint64_t kCycles = 20000;
  bench::header(
      "Settle-scheduler speedup — full-sweep vs event-driven",
      "same Cheshire SoC netlist; event-driven wakes only wire fan-out");
  std::printf("%-24s %16s %16s %10s\n", "workload", "full (cyc/s)",
              "event (cyc/s)", "speedup");
  bench::rule(70);
  for (const bool idle : {true, false}) {
    const double full =
        measure_system_rate(SchedPolicy::kFullSweep, idle, kCycles);
    const double event =
        measure_system_rate(SchedPolicy::kEventDriven, idle, kCycles);
    std::printf("%-24s %16.0f %16.0f %9.2fx\n",
                idle ? "system idle (monitor)" : "system random traffic",
                full, event, event / full);
  }
  bench::rule(70);
}

}  // namespace

int main(int argc, char** argv) {
  sim::global_log_level() = sim::LogLevel::kOff;
  // TMU_SPEEDUP_REPORT=0 skips the preamble so a benchmark-only run pays
  // only for the registered benchmarks.
  const char* report_env = std::getenv("TMU_SPEEDUP_REPORT");
  if (report_env == nullptr || std::string(report_env) != "0") {
    run_speedup_report();
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
