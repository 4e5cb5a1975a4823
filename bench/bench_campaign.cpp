// Randomized fault-injection campaign (extends Fig. 9 per §III-A.3:
// "We validated fault detection and latency by injecting random
// failures at key AXI transaction stages"), run through the parallel
// campaign::Engine: for every fault point and both variants, 200 trials
// with random injection delay under random background traffic, sharded
// across hardware threads. Reports detection coverage and latency
// spread, the serial-vs-parallel speedup, and writes the deterministic
// JSON report under build/campaign_fig9.json.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "campaign/campaign.hpp"
#include "sim/logger.hpp"

using fault::FaultPoint;
using tmu::Variant;

namespace {

constexpr int kTrials = 200;  // per (variant, fault point) pair

tmu::TmuConfig campaign_cfg(Variant v) {
  tmu::TmuConfig cfg;
  cfg.variant = v;
  cfg.tc_total_budget = 200;
  cfg.adaptive.enabled = true;
  cfg.adaptive.cycles_per_beat = 3;
  cfg.adaptive.cycles_per_ahead = 6;
  return cfg;
}

const std::vector<FaultPoint> kPoints = {
    FaultPoint::kAwReadyStuck, FaultPoint::kWValidStuck,
    FaultPoint::kWReadyStuck,  FaultPoint::kBValidStuck,
    FaultPoint::kBWrongId,     FaultPoint::kArReadyStuck,
    FaultPoint::kRValidStuck,  FaultPoint::kRWrongId,
};

campaign::TrialSpec proto_spec(Variant v, FaultPoint p) {
  campaign::TrialSpec spec;
  spec.cfg = campaign_cfg(v);
  spec.point = p;
  spec.traffic.enabled = true;
  spec.traffic.p_new_txn = 0.25;
  spec.traffic.max_outstanding = 6;
  spec.traffic.len_max = 7;
  spec.inject_delay_max = 500;
  spec.detect_budget = 4000;
  return spec;
}

/// One scenario per (variant, point): index 2i is Fc, 2i+1 is Tc.
std::vector<campaign::Scenario> build_scenarios(int trials) {
  std::vector<campaign::Scenario> sc;
  for (FaultPoint p : kPoints) {
    sc.push_back(campaign::make_scenario(
        std::string("fc/") + to_string(p),
        proto_spec(Variant::kFullCounter, p),
        static_cast<std::size_t>(trials)));
    sc.push_back(campaign::make_scenario(
        std::string("tc/") + to_string(p),
        proto_spec(Variant::kTinyCounter, p),
        static_cast<std::size_t>(trials)));
  }
  return sc;
}

void print_table(const campaign::Report& rep, int trials) {
  std::printf("%-18s | %8s %8s %8s %8s | %8s %8s %8s %8s\n", "", "Fc cov",
              "Fc min", "Fc mean", "Fc max", "Tc cov", "Tc min", "Tc mean",
              "Tc max");
  bench::rule(100);
  for (std::size_t i = 0; i < kPoints.size(); ++i) {
    const campaign::ScenarioSummary& fc = rep.scenarios[2 * i];
    const campaign::ScenarioSummary& tc = rep.scenarios[2 * i + 1];
    std::printf(
        "%-18s | %6llu/%d %8.0f %8.0f %8.0f | %6llu/%d %8.0f %8.0f %8.0f\n",
        to_string(kPoints[i]),
        static_cast<unsigned long long>(fc.detected), trials,
        fc.latency.min(), fc.latency.mean(), fc.latency.max(),
        static_cast<unsigned long long>(tc.detected), trials,
        tc.latency.min(), tc.latency.mean(), tc.latency.max());
  }
  bench::rule(100);
  std::printf("(coverage must be full for every point; Fc latencies sit at\n"
              " the failing phase's budget, Tc at the whole-transaction "
              "budget)\n");
}

void run_campaign_report() {
  bench::header(
      "Fault-injection campaign — random delays under random traffic",
      "extends Fig. 9 (§III-A.3); 200 trials per point per variant via "
      "campaign::Engine; latency from fault onset to TMU flag");

  const auto scenarios = build_scenarios(kTrials);
  const unsigned hw = std::thread::hardware_concurrency();

  campaign::Engine serial({1, 0xC0FFEEull});
  const campaign::Report serial_rep = serial.run(scenarios);

  campaign::Engine parallel({0, 0xC0FFEEull});  // 0 = hardware concurrency
  const campaign::Report parallel_rep = parallel.run(scenarios);

  print_table(parallel_rep, kTrials);

  const bool identical = serial_rep.to_json() == parallel_rep.to_json();
  const double speedup =
      parallel_rep.wall_seconds > 0.0
          ? serial_rep.wall_seconds / parallel_rep.wall_seconds
          : 0.0;
  std::printf(
      "\nEngine: %llu trials, %llu simulated cycles; serial %.2fs, "
      "%u-thread %.2fs -> speedup %.2fx on %u core(s)\n",
      static_cast<unsigned long long>(parallel_rep.total_trials()),
      static_cast<unsigned long long>(parallel_rep.total_cycles()),
      serial_rep.wall_seconds, parallel_rep.threads_used,
      parallel_rep.wall_seconds, speedup, hw);
  std::printf("Report determinism (1 thread vs %u threads): %s\n",
              parallel_rep.threads_used,
              identical ? "byte-identical" : "MISMATCH");
  if (hw >= 4 && speedup < 2.0) {
    std::printf("WARNING: expected >= 2x speedup on >= 4 cores\n");
  }

  const char* primary = "build/campaign_fig9.json";
  if (parallel_rep.write_json(primary)) {
    std::printf("Deterministic report written to %s\n", primary);
  } else if (parallel_rep.write_json("campaign_fig9.json")) {
    std::printf("Deterministic report written to ./campaign_fig9.json\n");
  }
}

// --- Snapshot-forked warm-up amortization ----------------------------
// The warm-up-heavy regime the snapshot layer targets: every trial of a
// scenario shares a 1500-cycle warm-up that is longer than the whole
// fault window (inject <= 200 + detect 600). Cold execution pays the
// warm-up per trial; forked execution pays it once per scenario and
// snapshot-forks the rest (reports are byte-identical either way —
// tests/test_snapshot_fork.cpp pins that).

constexpr std::uint64_t kWarmupCycles = 1500;

campaign::TrialSpec warm_proto(FaultPoint p) {
  campaign::TrialSpec spec = proto_spec(Variant::kFullCounter, p);
  spec.warmup_cycles = kWarmupCycles;
  spec.inject_delay_max = 200;
  spec.detect_budget = 600;
  return spec;
}

std::vector<campaign::Scenario> build_warm_scenarios(int trials) {
  std::vector<campaign::Scenario> sc;
  for (FaultPoint p : {FaultPoint::kAwReadyStuck, FaultPoint::kBValidStuck,
                       FaultPoint::kRValidStuck, FaultPoint::kWValidStuck}) {
    sc.push_back(campaign::make_scenario(
        std::string("warm/") + to_string(p), warm_proto(p),
        static_cast<std::size_t>(trials)));
  }
  return sc;
}

campaign::Report run_warm(const std::vector<campaign::Scenario>& scenarios,
                          bool fork) {
  campaign::EngineOptions opts;
  opts.threads = 0;  // hardware concurrency
  return campaign::Engine(opts).run(
      scenarios, fork ? campaign::make_forking_trial_fn()
                      : campaign::TrialFn(campaign::run_fault_trial));
}

void run_warmup_report() {
  bench::header(
      "Snapshot-forked warm-up amortization — cold vs forked trials",
      "every trial shares a warm-up longer than its fault window; "
      "forking runs it once per scenario (tmu-soc-snapshot-v4)");

  const auto scenarios = build_warm_scenarios(40);
  const campaign::Report cold = run_warm(scenarios, false);
  const campaign::Report forked = run_warm(scenarios, true);

  // In the cold report every trial's cycles_run includes its private
  // copy of the warm-up, so the warm-up fraction falls straight out.
  const std::uint64_t warm_cycles =
      kWarmupCycles * cold.total_trials();
  const double warm_frac =
      cold.total_cycles() > 0
          ? static_cast<double>(warm_cycles) /
                static_cast<double>(cold.total_cycles())
          : 0.0;
  const double speedup = forked.wall_seconds > 0.0
                             ? cold.wall_seconds / forked.wall_seconds
                             : 0.0;
  std::printf(
      "%llu trials, warm-up fraction %.0f%% of all simulated cycles\n"
      "cold %.3fs vs forked %.3fs at %u threads -> %.2fx trial "
      "throughput\n",
      static_cast<unsigned long long>(cold.total_trials()),
      100.0 * warm_frac, cold.wall_seconds, forked.wall_seconds,
      forked.threads_used, speedup);
  std::printf("Report equivalence (forked vs cold): %s\n",
              forked.to_json() == cold.to_json() ? "byte-identical"
                                                 : "MISMATCH");
  if (speedup < 2.0) {
    std::printf("WARNING: expected >= 2x forked speedup in the "
                "warm-up-heavy regime\n");
  }
}

/// Google-benchmark entries: a fixed slice of the campaign at 1 thread
/// vs hardware threads. Rates divide by wall time (UseRealTime): the
/// main thread's CPU time says nothing about the worker threads.
constexpr int kBenchTrials = 25;

void run_engine_bench(benchmark::State& state, unsigned threads) {
  const auto scenarios = build_scenarios(kBenchTrials);
  std::uint64_t trials = 0;
  for (auto _ : state) {
    campaign::Engine eng({threads, 0xC0FFEEull});
    const campaign::Report rep = eng.run(scenarios);
    trials += rep.total_trials();
    benchmark::DoNotOptimize(rep);
  }
  state.counters["trials_per_s"] = benchmark::Counter(
      static_cast<double>(trials), benchmark::Counter::kIsRate);
}

void BM_EngineSerial(benchmark::State& state) { run_engine_bench(state, 1); }
void BM_EngineParallel(benchmark::State& state) { run_engine_bench(state, 0); }
BENCHMARK(BM_EngineSerial)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_EngineParallel)->Unit(benchmark::kMillisecond)->UseRealTime();

/// Warm-up-heavy campaign, cold vs snapshot-forked, at two trial
/// counts (the speedup grows with trials/scenario as one warm-up
/// amortizes further). BM_WarmForked / BM_WarmCold trials/s at equal
/// args is the speedup.
void run_warm_bench(benchmark::State& state, bool fork) {
  const auto scenarios =
      build_warm_scenarios(static_cast<int>(state.range(0)));
  std::uint64_t trials = 0;
  for (auto _ : state) {
    const campaign::Report rep = run_warm(scenarios, fork);
    trials += rep.total_trials();
    benchmark::DoNotOptimize(rep);
  }
  state.counters["trials_per_s"] = benchmark::Counter(
      static_cast<double>(trials), benchmark::Counter::kIsRate);
}

void BM_WarmCold(benchmark::State& state) { run_warm_bench(state, false); }
void BM_WarmForked(benchmark::State& state) { run_warm_bench(state, true); }
BENCHMARK(BM_WarmCold)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_WarmForked)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  sim::global_log_level() = sim::LogLevel::kOff;
  // The full 200-trial report (plus its serial reference run) is the
  // default surface; TMU_CAMPAIGN_REPORT=0 skips it so a benchmark-only
  // run pays only for the registered benchmarks.
  const char* report_env = std::getenv("TMU_CAMPAIGN_REPORT");
  if (report_env == nullptr || std::string(report_env) != "0") {
    run_campaign_report();
    run_warmup_report();
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
