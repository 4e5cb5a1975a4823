// Reproduces Fig. 11: system-level detection latency in the Cheshire-
// like SoC. A 250-beat write on the 64-bit bus stresses the Ethernet
// endpoint; faults are injected at each transaction stage. The
// Tiny-Counter uses a single 320-cycle budget for the whole transaction;
// the Full-Counter allocates per-phase budgets (10 for AW, 20 for
// AW->W, 10 for the first W handshake, 250 for the data phase, 10 for
// the response phases), so it detects early faults near-immediately
// while Tc always reports at 320 cycles.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "sim/logger.hpp"
#include "soc/builder.hpp"
#include "soc/topologies.hpp"

using fault::FaultPoint;
using soc::CheshireMap;
using tmu::Variant;

namespace {

tmu::TmuConfig fig11_cfg(Variant v) {
  tmu::TmuConfig cfg;
  cfg.variant = v;
  cfg.max_uniq_ids = 4;
  cfg.txn_per_uniq_id = 8;
  cfg.budgets.aw_vld_aw_rdy = 10;
  cfg.budgets.aw_rdy_w_vld = 20;
  cfg.budgets.w_vld_w_rdy = 10;
  cfg.budgets.w_first_w_last = 250;
  cfg.budgets.w_last_b_vld = 10;
  cfg.budgets.b_vld_b_rdy = 10;
  cfg.tc_total_budget = 320;
  cfg.adaptive.enabled = false;
  cfg.max_txn_cycles = 320;
  return cfg;
}

struct Stage {
  const char* label;  // x-axis label of Fig. 11
  FaultPoint point;
  unsigned after_beats;
};

const std::vector<Stage> kStages = {
    {"AWVLD_AWRDY", FaultPoint::kAwReadyStuck, 0},
    {"AWRDY_WVLD", FaultPoint::kWValidStuck, 0},
    {"WVLD_WRDY (WFIRST)", FaultPoint::kWReadyStuck, 0},
    {"WFIRST_WLAST", FaultPoint::kMidBurstWStall, 125},
    {"WLAST_BVLD", FaultPoint::kBValidStuck, 0},
    {"BVLD_BRDY", FaultPoint::kBReadyStuck, 0},
};

struct Result {
  bool detected = false;
  std::uint64_t detect_cycle = 0;   ///< absolute cycle of the flag
  std::uint64_t txn_start = 0;      ///< cycle the AW was presented
  std::uint32_t elapsed = 0;        ///< cycles inside the flagged scope
  std::uint32_t budget = 0;
  std::string phase;
};

Result run_stage(Variant v, const Stage& st) {
  const auto sys = soc::SocBuilder::build(soc::cheshire_desc(fig11_cfg(v)));
  // Ethernet fast enough to sink 250 beats back-to-back: the data phase
  // is bounded by the bus, exactly as in the paper's stress setup.
  const char* inj = fault::is_manager_side(st.point) ? "inj_m" : "inj_s";
  sys->get<fault::FaultInjector>(inj).arm(st.point, 0, st.after_beats);
  sys->get<axi::TrafficGenerator>("idma").push(axi::TxnDesc{
      true, 2, CheshireMap::kEthTxWindow, 249, 3, axi::Burst::kIncr});
  const tmu::Tmu& tmu = sys->get<tmu::Tmu>("tmu");
  Result r;
  if (!sys->sim().run_until([&] { return tmu.any_fault(); }, 8000)) {
    return r;
  }
  const auto& f = tmu.fault_log().front();
  r.detected = true;
  r.detect_cycle = f.cycle;
  r.elapsed = f.elapsed;
  r.budget = f.budget;
  r.phase = f.phase_valid
                ? to_string(static_cast<tmu::WritePhase>(f.phase))
                : "whole-txn";
  return r;
}

void print_table() {
  bench::header(
      "Fig. 11 — system-level detection latency, 250-beat Ethernet write",
      "paper series — Fc: 10 / 20 / 10 / <=250 / 10 / 10 cycles at the "
      "failing phase; Tc: 320 cycles for every stage");
  std::printf("%-20s | %-14s %9s %9s | %9s\n", "injection stage", "Fc phase",
              "Fc lat", "budget", "Tc lat");
  bench::rule(76);
  for (const Stage& st : kStages) {
    const Result fc = run_stage(Variant::kFullCounter, st);
    const Result tc = run_stage(Variant::kTinyCounter, st);
    std::printf("%-20s | %-14s %9u %9u | %9u\n", st.label,
                fc.detected ? fc.phase.c_str() : "-", fc.elapsed, fc.budget,
                tc.elapsed);
  }
  bench::rule(76);
  std::printf(
      "(latency = cycles spent in the flagged scope when the TMU trips:\n"
      " Fc counts within the failing phase, Tc within the whole "
      "transaction)\n");
}

void BM_SystemDetection(benchmark::State& state) {
  const Stage& st = kStages[static_cast<std::size_t>(state.range(0))];
  Result r;
  for (auto _ : state) {
    r = run_stage(Variant::kFullCounter, st);
    benchmark::DoNotOptimize(r);
  }
  state.counters["fc_latency"] = static_cast<double>(r.elapsed);
  state.SetLabel(st.label);
}
BENCHMARK(BM_SystemDetection)->DenseRange(0, 5)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  sim::global_log_level() = sim::LogLevel::kOff;
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
