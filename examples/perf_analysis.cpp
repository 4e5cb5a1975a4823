// Bottleneck analysis with the Full-Counter's performance log (§II-H):
// the Fc TMU doubles as a performance monitor, recording per-phase
// latency of every completed transaction. Here a slow write data path
// is planted in the subordinate; the phase statistics point straight at
// the WFIRST_WLAST (burst data transfer) phase.
//
// Build & run:  ./build/examples/perf_analysis

#include <cstdio>

#include "axi/link.hpp"
#include "axi/memory.hpp"
#include "axi/traffic_gen.hpp"
#include "sim/kernel.hpp"
#include "tmu/tmu.hpp"

int main() {
  using namespace axi;

  tmu::TmuConfig cfg;
  cfg.variant = tmu::Variant::kFullCounter;  // perf logging needs Fc
  cfg.adaptive.enabled = true;
  cfg.adaptive.cycles_per_beat = 6;  // tolerate the slow data path

  Link l_gen, l_sub;
  TrafficGenerator gen("gen", l_gen, 42);
  tmu::Tmu tmu("tmu", l_gen, l_sub, cfg);
  MemoryConfig mc;
  mc.w_ready_every = 4;  // the planted bottleneck: 1 beat per 4 cycles
  mc.b_latency = 2;
  MemorySubordinate mem("mem", l_sub, mc);

  // One transaction in flight at a time, so the per-phase statistics
  // isolate the endpoint itself rather than queueing effects.
  gen.set_max_outstanding(1);

  sim::Simulator s;
  s.add(gen);
  s.add(tmu);
  s.add(mem);
  s.reset();

  for (int i = 0; i < 32; ++i) {
    gen.push(TxnDesc{true, static_cast<Id>(i % 4),
                     static_cast<Addr>(i * 0x100), 15, 3, Burst::kIncr});
  }
  if (!s.run_until([&] { return gen.completed() >= 32; }, 50000)) {
    std::printf("traffic did not complete\n");
    return 1;
  }

  const tmu::GuardStats& st = tmu.write_guard().stats();
  std::printf("completed %llu write transactions, %llu beats, 0 faults=%s\n\n",
              static_cast<unsigned long long>(st.completed),
              static_cast<unsigned long long>(st.beats),
              tmu.any_fault() ? "NO" : "yes");

  std::printf("%-14s %10s %10s %10s\n", "write phase", "mean", "min", "max");
  for (unsigned p = 0; p < tmu::kNumWritePhases; ++p) {
    std::printf("%-14s %10.1f %10.0f %10.0f\n",
                to_string(static_cast<tmu::WritePhase>(p)),
                st.phase[p].mean(), st.phase[p].min(), st.phase[p].max());
  }
  std::printf("%-14s %10.1f\n\n", "TOTAL", st.total_latency.mean());

  // Identify the bottleneck phase automatically.
  unsigned worst = 0;
  for (unsigned p = 1; p < tmu::kNumWritePhases; ++p) {
    if (st.phase[p].mean() > st.phase[worst].mean()) worst = p;
  }
  std::printf("bottleneck: %s (%.0f%% of the mean transaction time) — the\n"
              "planted 1-beat-per-4-cycles write data path.\n",
              to_string(static_cast<tmu::WritePhase>(worst)),
              100.0 * st.phase[worst].mean() / st.total_latency.mean());

  // The raw per-transaction log is also available:
  const auto& log = tmu.write_guard().perf_log();
  std::printf("\nfirst three entries of the per-transaction perf log:\n");
  for (std::size_t i = 0; i < 3 && i < log.size(); ++i) {
    std::printf("  id=%u addr=0x%llx len=%u total=%u cycles\n", log[i].id,
                static_cast<unsigned long long>(log[i].addr), log[i].len + 1,
                log[i].total_cycles);
  }

  // Simulator-side cost of the run, courtesy of the event-driven
  // scheduler (src/sim/sched/): how much eval work the wire fan-out
  // dirty-sets actually performed vs. what a full sweep would pay.
  const sim::sched::SchedStats& ss = s.sched_stats();
  std::printf("\nscheduler: %llu module evals over %llu cycles "
              "(%.2f evals/cycle), "
              "%llu wire writes, %llu wakeups, %zu wires / %zu edges\n",
              static_cast<unsigned long long>(ss.module_evals),
              static_cast<unsigned long long>(s.cycle()),
              static_cast<double>(ss.module_evals) /
                  static_cast<double>(s.cycle()),
              static_cast<unsigned long long>(ss.wire_writes),
              static_cast<unsigned long long>(ss.wakeups), ss.wires,
              ss.edges);
  return 0;
}
