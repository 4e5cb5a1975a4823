// Unified observability layer: MetricsRegistry slot semantics, exact
// snapshot/merge with deterministic JSON, the declarative per-link
// LatencyProbe (SocDesc::probes), and the scheduler profiler pinned
// against the kernel's own eval counters.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "axi/link.hpp"
#include "axi/memory.hpp"
#include "axi/traffic_gen.hpp"
#include "obs/latency_probe.hpp"
#include "obs/metrics.hpp"
#include "sim/kernel.hpp"
#include "soc/builder.hpp"
#include "soc/topologies.hpp"

namespace {

// ----------------------------- registry --------------------------------

TEST(MetricsRegistry, SlotsAreStableAndIdempotent) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("axi.txns");
  c.inc();
  c.inc(4);
  EXPECT_EQ(reg.counter("axi.txns").value(), 5u);  // same slot
  EXPECT_EQ(&reg.counter("axi.txns"), &c);
  sim::RunningStats& rs = reg.stats("axi.latency");
  rs.add(10.0);
  EXPECT_EQ(reg.stats("axi.latency").count(), 1u);
  sim::Histogram& h = reg.histogram("axi.occupancy");
  h.add(3);
  EXPECT_EQ(reg.histogram("axi.occupancy").count(3), 1u);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistry, OneKindPerNameIsEnforced) {
  obs::MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.stats("x"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("x"), std::invalid_argument);
  EXPECT_THROW(reg.counter(""), std::invalid_argument);
  try {
    reg.stats("x");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'x'"), std::string::npos);
  }
}

TEST(MetricsRegistry, ResetValuesKeepsRegistrations) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("n");
  sim::RunningStats& rs = reg.stats("s");
  sim::Histogram& h = reg.histogram("h");
  c.inc(7);
  rs.add(1.0);
  h.add(2);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);       // same slot, zeroed in place
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(reg.size(), 3u);
}

// ------------------------- snapshot & merge ----------------------------

TEST(MetricsSnapshot, MergeIsExactAndJsonDeterministic) {
  obs::MetricsRegistry a, b, whole;
  for (double v : {1.0, 2.0, 5.0}) {
    a.stats("lat").add(v);
    whole.stats("lat").add(v);
  }
  for (double v : {3.0, 8.0}) {
    b.stats("lat").add(v);
    whole.stats("lat").add(v);
  }
  a.counter("txns").inc(10);
  b.counter("txns").inc(32);
  whole.counter("txns").inc(42);
  a.histogram("occ").add(1);
  b.histogram("occ").add(1);
  b.histogram("occ").add(9);
  whole.histogram("occ").add(1);
  whole.histogram("occ").add(1);
  whole.histogram("occ").add(9);

  obs::MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  // Exact pooling: the sharded stream serializes byte-identically to
  // the single-stream run — the campaign determinism contract.
  EXPECT_EQ(merged.to_json(), whole.snapshot().to_json());
  EXPECT_EQ(merged.counters.at("txns"), 42u);
  EXPECT_EQ(merged.stats.at("lat").count(), 5u);
  EXPECT_EQ(merged.histograms.at("occ").count(1), 2u);
}

TEST(MetricsSnapshot, JsonShapeIsSortedAndEscaped) {
  obs::MetricsRegistry reg;
  reg.counter("b.second").inc(2);
  reg.counter("a.first").inc(1);
  const std::string json = reg.snapshot().to_json();
  // Name-sorted: "a.first" precedes "b.second" regardless of
  // registration order.
  EXPECT_LT(json.find("a.first"), json.find("b.second"));
  EXPECT_NE(json.find("\"counters\": {"), std::string::npos);
  EXPECT_NE(json.find("\"stats\": {}"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\": {}"), std::string::npos);

  obs::MetricsSnapshot empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.to_json(),
            "{\n  \"counters\": {},\n  \"stats\": {},\n"
            "  \"histograms\": {}\n}\n");
}

// ------------------------- latency probe -------------------------------

TEST(LatencyProbe, CountsTrafficLikeTheRetiredPerfMonitor) {
  axi::Link link;
  axi::TrafficGenerator gen("gen", link);
  axi::MemorySubordinate mem("mem", link);
  obs::MetricsRegistry reg;
  obs::LatencyProbe probe("probe", link, reg);
  sim::Simulator s;
  s.add(gen);
  s.add(mem);
  s.add(probe);
  s.reset();
  // Distinct IDs per transaction: latency is tracked per ID from AW/AR
  // accept to B/last-R, so same-ID pipelining would fold the samples.
  for (int i = 0; i < 4; ++i) {
    gen.push(axi::TxnDesc{true, static_cast<axi::Id>(i),
                          static_cast<axi::Addr>(i * 0x40), 3, 3,
                          axi::Burst::kIncr});
    gen.push(axi::TxnDesc{false, static_cast<axi::Id>(4 + i),
                          static_cast<axi::Addr>(i * 0x40), 3, 3,
                          axi::Burst::kIncr});
  }
  ASSERT_TRUE(s.run_until([&] { return gen.completed() >= 8; }, 1000));
  // Pinned numbers of the old baseline::AxiPerfMonitor semantics.
  EXPECT_EQ(probe.write_txns(), 4u);
  EXPECT_EQ(probe.read_txns(), 4u);
  EXPECT_EQ(probe.bytes_written(), 4u * 4u * 8u);
  EXPECT_EQ(probe.bytes_read(), 4u * 4u * 8u);
  EXPECT_GT(probe.write_latency().mean(), 0.0);
  EXPECT_GT(probe.write_throughput(), 0.0);
  // The histograms carry exactly the completed transactions...
  EXPECT_EQ(probe.write_latency_hist().total(), 4u);
  EXPECT_EQ(probe.read_latency_hist().total(), 4u);
  // ...and everything is visible through the registry under "probe.*".
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("probe.write_txns"), 4u);
  EXPECT_EQ(snap.stats.at("probe.read_latency").count(), 4u);
  EXPECT_GT(snap.histograms.at("probe.occupancy").total(), 0u);
}

TEST(LatencyProbe, DeclarativeProbesElaborateFromTheDesc) {
  soc::SocDesc d = soc::ip_testbench_desc();
  d.managers[0].traffic.enabled = true;
  d.managers[0].traffic.p_new_txn = 0.5;
  d.probes.push_back({"p_gen", "gen.out"});
  d.probes.push_back({"p_mem", "mem.in"});
  const auto soc = soc::SocBuilder::build(d);
  soc->sim().run(2000);
  const obs::MetricsSnapshot snap = soc->metrics().snapshot();
  EXPECT_GT(snap.counters.at("p_gen.write_txns"), 0u);
  EXPECT_GT(snap.counters.at("p_mem.write_txns"), 0u);
  // Both probes watch the same single-path chain: identical traffic.
  EXPECT_EQ(snap.counters.at("p_gen.write_txns"),
            snap.counters.at("p_mem.write_txns"));
  EXPECT_GT(snap.stats.at("p_gen.write_latency").count(), 0u);
  // The probe modules resolve by name like any other block.
  EXPECT_NE(soc->find("p_gen"), nullptr);
  EXPECT_NO_THROW(soc->get<obs::LatencyProbe>("p_mem"));
}

TEST(LatencyProbe, ClusterDownlinkProbeSeesBridgeLatency) {
  // Two-level hierarchy: a probe on a "<cluster>.down" link (behind the
  // bridge) against one on the same cluster's feed ("<cluster>.in",
  // before the bridge). One transaction in flight at a time, so the
  // probes sample the same transactions and the per-ID latency maps
  // never fold (the bridge remaps IDs, so folding would differ per
  // side and scramble the comparison).
  soc::SocDesc d = soc::hier_grid_desc(1, 1, 2, /*active=*/1);
  d.managers[0].traffic.max_outstanding = 1;
  d.probes.push_back({"p_up", "cl0.in"});
  d.probes.push_back({"p_down", "cl0.down"});
  const auto soc = soc::SocBuilder::build(d);
  soc->sim().run(3000);

  auto& up = soc->get<obs::LatencyProbe>("p_up");
  auto& down = soc->get<obs::LatencyProbe>("p_down");
  // Same chain, no other path into the cluster: counts agree up to the
  // one request the bridge's req register can still hold at the cutoff.
  EXPECT_GT(down.write_txns(), 10u);
  EXPECT_GE(up.write_txns(), down.write_txns());
  EXPECT_LE(up.write_txns() - down.write_txns(), 1u);
  EXPECT_GE(up.read_txns(), down.read_txns());
  EXPECT_LE(up.read_txns() - down.read_txns(), 1u);
  // The bridge's req+rsp registration (1 cycle each) sits between the
  // two probes, so every transaction is exactly 2 cycles longer
  // upstream — visible in the distribution's bounds (the means can
  // differ from 2.0 by at most one cutoff-straddling sample).
  ASSERT_GT(up.write_latency().count(), 0u);
  EXPECT_EQ(up.write_latency().min(), down.write_latency().min() + 2.0);
  EXPECT_EQ(up.write_latency().max(), down.write_latency().max() + 2.0);
  EXPECT_NEAR(up.write_latency().mean(), down.write_latency().mean() + 2.0,
              0.5);
  ASSERT_GT(up.read_latency().count(), 0u);
  EXPECT_EQ(up.read_latency().min(), down.read_latency().min() + 2.0);
  EXPECT_EQ(up.read_latency().max(), down.read_latency().max() + 2.0);
  EXPECT_NEAR(up.read_latency().mean(), down.read_latency().mean() + 2.0,
              0.5);
}

TEST(LatencyProbe, OccupancyIsZeroOnAnIdleDownlink) {
  // Only gen0 is active and it is window-steered at cl0; the cl1
  // downlink carries nothing, and an idle probe must say so: zero
  // transactions, occupancy samples all at zero.
  soc::SocDesc d = soc::hier_grid_desc(1, 2, 2, /*active=*/1);
  d.managers[0].traffic.addr_max = 2 * 0x1'0000ull - 8;  // cl0's window
  d.probes.push_back({"p_idle", "cl1.down"});
  const auto soc = soc::SocBuilder::build(d);
  soc->sim().run(1000);
  auto& idle = soc->get<obs::LatencyProbe>("p_idle");
  EXPECT_EQ(idle.write_txns(), 0u);
  EXPECT_EQ(idle.read_txns(), 0u);
  const sim::Histogram& occ = idle.occupancy_hist();
  EXPECT_GT(occ.total(), 0u);          // sampled every cycle...
  EXPECT_EQ(occ.count(0), occ.total());  // ...always empty
}

// ------------------------ scheduler profiler ---------------------------

TEST(SchedProfiler, EvalCountsMatchTheKernelExactly) {
  soc::SocDesc d = soc::ip_testbench_desc();
  d.managers[0].traffic.enabled = true;
  d.managers[0].traffic.p_new_txn = 0.5;
  const auto soc = soc::SocBuilder::build(d);
  sim::Simulator& s = soc->sim();
  s.run(500);
  const sim::sched::SchedProfile prof = s.sched_profile();
  // The per-module profile decomposes module_evals() exactly.
  EXPECT_EQ(prof.total_evals(), s.module_evals());
  std::uint64_t wakeup_sum = 0;
  for (const auto& mp : prof.modules) {
    EXPECT_FALSE(mp.name.empty());
    wakeup_sum += mp.wakeups();
  }
  // Every eval was enqueued by exactly one cause.
  EXPECT_EQ(wakeup_sum, prof.total_evals());
  // One dirty-depth sample per non-empty drain.
  EXPECT_EQ(prof.dirty_depth.total(), s.sched_stats().drains);
  // The report is printable and names the netlist's blocks.
  const std::string top = prof.top_modules(3);
  EXPECT_NE(top.find("evals"), std::string::npos);
  EXPECT_NE(top.find("total:"), std::string::npos);
}

TEST(SchedProfiler, ProfilingCanBeDisabled) {
  soc::SocDesc d = soc::ip_testbench_desc();
  d.managers[0].traffic.enabled = true;
  const auto soc = soc::SocBuilder::build(d);
  sim::Simulator& s = soc->sim();
  const sim::sched::SchedProfile before = s.sched_profile();
  s.set_sched_profiling(false);
  s.run(200);
  const sim::sched::SchedProfile after = s.sched_profile();
  // Off means frozen per-module counters, while the aggregate
  // SchedStats keep counting.
  EXPECT_EQ(after.total_evals(), before.total_evals());
  EXPECT_GT(s.module_evals(), before.total_evals());
}

TEST(SchedProfiler, FullSweepPolicyLeavesTheProfileEmpty) {
  soc::SocDesc d = soc::ip_testbench_desc();
  d.policy = sim::sched::SchedPolicy::kFullSweep;
  d.managers[0].traffic.enabled = true;
  const auto soc = soc::SocBuilder::build(d);
  soc->sim().run(200);
  EXPECT_EQ(soc->sim().sched_profile().total_evals(), 0u);
  EXPECT_GT(soc->sim().module_evals(), 0u);
}

}  // namespace
