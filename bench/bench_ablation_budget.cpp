// Ablation A1 (design choice of §II-F): adaptive vs. fixed time budgets.
// Healthy bursty traffic through a slow subordinate: fixed budgets sized
// for short transactions raise FALSE timeouts on long bursts and queued
// transactions; adaptive budgets (scaling with burst length and
// accumulated outstanding traffic) stay quiet without giving up
// detection of real stalls.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "sim/logger.hpp"

using fault::FaultPoint;
using tmu::Variant;

namespace {

tmu::TmuConfig cfg_with(bool adaptive) {
  tmu::TmuConfig cfg;
  cfg.variant = Variant::kFullCounter;
  cfg.max_uniq_ids = 4;
  cfg.txn_per_uniq_id = 8;
  // Budgets sized for a short (8-beat) transaction.
  cfg.budgets.aw_vld_aw_rdy = 16;
  cfg.budgets.aw_rdy_w_vld = 24;
  cfg.budgets.w_vld_w_rdy = 16;
  cfg.budgets.w_first_w_last = 24;
  cfg.budgets.w_last_b_vld = 24;
  cfg.budgets.b_vld_b_rdy = 16;
  cfg.adaptive.enabled = adaptive;
  cfg.adaptive.cycles_per_beat = 3;   // covers w_ready_every = 2
  cfg.adaptive.cycles_per_ahead = 4;
  return cfg;
}

struct Outcome {
  std::size_t false_faults = 0;   ///< faults on healthy traffic
  std::size_t completed = 0;
  bool real_fault_detected = false;
  std::uint64_t real_fault_latency = 0;
};

/// Phase 1: healthy bursty traffic (any fault is false). Phase 2: a real
/// stall is injected (must still be caught).
Outcome run(bool adaptive, std::uint8_t burst_len) {
  Outcome o;
  // The testbench's memory with a slow write data path (one beat every
  // 2 cycles).
  soc::SocDesc d = soc::ip_testbench_desc(cfg_with(adaptive));
  d.subordinates[0].mem.w_ready_every = 2;
  bench::IpBench b(d);
  sim::Simulator& s = b.s;

  for (int i = 0; i < 6; ++i) {
    b.gen.push(axi::TxnDesc{true, static_cast<axi::Id>(i % 2),
                            static_cast<axi::Addr>(i * 0x400), burst_len, 3,
                            axi::Burst::kIncr});
  }
  s.run_until([&] { return b.gen.completed() >= 6 || b.tmu.any_fault(); },
              20000);
  o.false_faults = b.tmu.fault_log().size();
  o.completed = b.gen.completed();
  if (o.false_faults > 0) return o;  // severed; skip phase 2

  // Phase 2: real stall.
  b.inj_s.arm(FaultPoint::kBValidStuck);
  b.gen.push(axi::TxnDesc{true, 0, 0x8000, burst_len, 3, axi::Burst::kIncr});
  if (s.run_until([&] { return b.tmu.any_fault(); }, 20000)) {
    o.real_fault_detected = true;
    o.real_fault_latency =
        b.tmu.fault_log().front().cycle - b.inj_s.fault_start_cycle();
  }
  return o;
}

void print_table() {
  bench::header("Ablation — adaptive vs. fixed time budgets (§II-F)",
                "fixed budgets sized for 8-beat bursts; healthy traffic "
                "must produce ZERO faults, the injected stall must still "
                "be caught");
  std::printf("%10s | %8s | %12s %10s %9s %11s\n", "burst len", "budgets",
              "false faults", "completed", "caught", "latency");
  bench::rule(72);
  for (std::uint8_t len : {7, 15, 31, 63}) {
    for (bool adaptive : {false, true}) {
      const Outcome o = run(adaptive, len);
      std::printf("%10u | %8s | %12zu %10zu %9s %11llu\n", unsigned{len} + 1,
                  adaptive ? "adaptive" : "fixed", o.false_faults,
                  o.completed, o.real_fault_detected ? "yes" : "n/a",
                  static_cast<unsigned long long>(o.real_fault_latency));
    }
  }
  bench::rule(72);
  std::printf("(a false fault severs the endpoint and aborts healthy "
              "transactions —\n exactly what adaptive budgeting prevents)\n");
}

void BM_Adaptive(benchmark::State& state) {
  for (auto _ : state) {
    auto o = run(true, 31);
    benchmark::DoNotOptimize(o);
  }
}
BENCHMARK(BM_Adaptive)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  sim::global_log_level() = sim::LogLevel::kOff;
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
