// Snapshot round-trip fuzz: random nested hier_grid topologies under
// both scheduler policies, captured at random cycles, forked, run on —
// the forked netlist's recaptured state must equal the original's byte
// for byte. Plus full-SoC coverage (Cheshire: TMU + MMIO + PLIC + CPU
// stub + LLC + Ethernet + iDMA), a mid-replay capture of the
// trace-replay traffic generator, and restores into netlists that have
// run on since (what a pooled campaign trial netlist goes through).

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "sim/kernel.hpp"
#include "sim/logger.hpp"
#include "sim/random.hpp"
#include "sim/state.hpp"
#include "snapshot/snapshot.hpp"
#include "soc/builder.hpp"
#include "soc/idma.hpp"
#include "soc/topologies.hpp"
#include "state_bytes.hpp"
#include "trace/format.hpp"
#include "trace/recorder.hpp"

namespace {

using snapshot::Snapshot;

// Runs the capture/fork/continue contract on `desc`: capture at
// `at_cycle`, fork, run both sides `extra` more cycles, then the two
// recaptured states must be byte-identical (the strongest equivalence —
// every wire, queue, RNG word and counter agrees).
void expect_fork_equivalent(const soc::SocDesc& desc, std::uint64_t at_cycle,
                            std::uint64_t extra) {
  const std::unique_ptr<soc::Soc> orig = soc::SocBuilder::build(desc);
  orig->sim().run(at_cycle);
  const Snapshot snap = snapshot::capture(*orig);
  EXPECT_EQ(snap.cycle, at_cycle);

  // capture() is read-only: recapturing without stepping is identical.
  EXPECT_EQ(snapshot::capture(*orig), snap);

  const std::unique_ptr<soc::Soc> forked = snapshot::fork(snap, desc);
  EXPECT_EQ(forked->sim().cycle(), at_cycle);

  orig->sim().run(extra);
  forked->sim().run(extra);
  const Snapshot a = snapshot::capture(*orig);
  const Snapshot b = snapshot::capture(*forked);
  EXPECT_EQ(a.cycle, at_cycle + extra);
  EXPECT_EQ(a, b) << desc.name << " diverged after forking at cycle "
                  << at_cycle;
  EXPECT_EQ(orig->metrics().snapshot().to_json(),
            forked->metrics().snapshot().to_json());
}

TEST(SnapshotRoundtrip, FuzzNestedHierGridTopologies) {
  sim::Rng rng(0x5EED5EED);
  for (int it = 0; it < 10; ++it) {
    const unsigned n_mgr = static_cast<unsigned>(rng.range(1, 3));
    const unsigned n_cluster = static_cast<unsigned>(rng.range(1, 3));
    const unsigned per_cluster = static_cast<unsigned>(rng.range(1, 2));
    const unsigned active = static_cast<unsigned>(rng.range(1, n_mgr));
    soc::SocDesc d = soc::hier_grid_desc(n_mgr, n_cluster, per_cluster, active);
    d.policy = (it % 2 == 0) ? sim::sched::SchedPolicy::kEventDriven
                             : sim::sched::SchedPolicy::kFullSweep;
    expect_fork_equivalent(d, rng.range(0, 400), rng.range(1, 300));
  }
}

TEST(SnapshotRoundtrip, CheshireFullSocBothPolicies) {
  tmu::TmuConfig cfg;
  cfg.variant = tmu::Variant::kFullCounter;
  for (const sim::sched::SchedPolicy policy :
       {sim::sched::SchedPolicy::kEventDriven,
        sim::sched::SchedPolicy::kFullSweep}) {
    soc::SocDesc d = soc::cheshire_desc(cfg);
    d.policy = policy;
    expect_fork_equivalent(d, 500, 400);
  }
}

TEST(SnapshotRoundtrip, CaptureAtCycleZero) {
  // Post-reset, pre-run state is a legal capture point.
  expect_fork_equivalent(soc::ip_testbench_desc(), 0, 200);
}

TEST(SnapshotRoundtrip, MidReplayTraceTrafficGen) {
  // Record a stream from the IP testbench, replay it on a second desc,
  // and snapshot in the middle of the replay: the replayer's channel
  // plans and presentation indices must fork exactly.
  soc::SocDesc rec_desc = soc::ip_testbench_desc();
  rec_desc.managers.front().traffic.enabled = true;
  rec_desc.managers.front().traffic.p_new_txn = 0.4;
  rec_desc.traces.push_back(soc::TraceDesc{"trace.gen", "gen.out"});
  const std::unique_ptr<soc::Soc> rec = soc::SocBuilder::build(rec_desc);
  rec->sim().run(600);
  const trace::TraceBuffer buf =
      rec->get<trace::Recorder>("trace.gen").take();
  ASSERT_GT(buf.records.size(), 0u);
  const std::string path = "snapshot_roundtrip_replay.axitrace";
  ASSERT_TRUE(trace::write_trace_file(path, buf));

  soc::SocDesc rep_desc = soc::ip_testbench_desc();
  rep_desc.managers.front().kind = soc::ManagerKind::kTraceReplay;
  rep_desc.managers.front().trace_path = path;
  expect_fork_equivalent(rep_desc, 250, 450);
  std::remove(path.c_str());
}

using state_bytes::state_of;

// Every module's visit_state() bytes, then the whole capture: the
// simulator checkpoint, every wire and the metrics registry.
void expect_same_state(soc::Soc& a, soc::Soc& b, const std::string& at) {
  const auto& ma = a.sim().modules();
  const auto& mb = b.sim().modules();
  ASSERT_EQ(ma.size(), mb.size()) << at;
  for (std::size_t i = 0; i < ma.size(); ++i) {
    EXPECT_TRUE(state_of(*ma[i]) == state_of(*mb[i]))
        << ma[i]->name() << " differs " << at;
  }
  EXPECT_TRUE(snapshot::capture(a) == snapshot::capture(b))
      << "wires, checkpoint or metrics differ " << at;
}

// Every link of a netlist: "<manager>.out" ports and the "<block>.in"
// chain links (soc::Soc's naming scheme).
std::vector<axi::Link*> links_of(soc::Soc& soc) {
  std::vector<axi::Link*> links;
  for (const std::string& block : soc.block_names()) {
    for (const char* suffix : {".out", ".in"}) {
      try {
        links.push_back(&soc.link(block + suffix));
      } catch (const std::invalid_argument&) {
      }
    }
  }
  return links;
}

// Restores `snap` into `used` — a netlist elaborated from `desc` that
// has run on since — and holds it to a fresh snapshot::fork of the same
// snapshot: equal state right after the restore, then 2,000 cycles in
// lockstep (every link's wires each cycle, the whole state every 100).
void expect_restore_matches_fresh_fork(const Snapshot& snap,
                                       const soc::SocDesc& desc,
                                       soc::Soc& used) {
  ASSERT_FALSE(snapshot::capture(used) == snap) << "the netlist is not used";
  snapshot::restore(snap, used);
  const std::unique_ptr<soc::Soc> fresh = snapshot::fork(snap, desc);
  expect_same_state(used, *fresh, "right after the restore");
  const std::vector<axi::Link*> a = links_of(used);
  const std::vector<axi::Link*> b = links_of(*fresh);
  ASSERT_EQ(a.size(), b.size());
  for (int c = 1; c <= 2000; ++c) {
    used.sim().step();
    fresh->sim().step();
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_TRUE(a[i]->req.read() == b[i]->req.read() &&
                  a[i]->rsp.read() == b[i]->rsp.read())
          << desc.name << ": link " << i << " left lockstep at cycle "
          << used.sim().cycle();
    }
    if (c % 100 == 0) {
      expect_same_state(used, *fresh,
                        "after " + std::to_string(c) + " lockstep cycles");
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_EQ(used.metrics().snapshot().to_json(),
            fresh->metrics().snapshot().to_json());
}

TEST(SnapshotRestoreIntoUsedNetlist, IpTestbenchAfterARecoveredTrial) {
  const sim::LogLevel saved = sim::global_log_level();
  sim::global_log_level() = sim::LogLevel::kOff;
  for (const sim::sched::SchedPolicy policy :
       {sim::sched::SchedPolicy::kEventDriven,
        sim::sched::SchedPolicy::kFullSweep}) {
    tmu::TmuConfig cfg;
    cfg.variant = tmu::Variant::kFullCounter;
    cfg.tc_total_budget = 200;
    soc::SocDesc d = soc::ip_testbench_desc(cfg);
    d.policy = policy;
    d.managers.front().traffic.enabled = true;
    d.managers.front().traffic.p_new_txn = 0.3;
    d.managers.front().traffic.len_max = 7;
    d.traces.push_back(soc::TraceDesc{"trace.gen", "gen.out"});
    const std::unique_ptr<soc::Soc> used = soc::SocBuilder::build(d);
    used->sim().run(800);
    const Snapshot warm = snapshot::capture(*used);

    // The trial the pool hands back: detected, severed, reset by the
    // reset unit, recovered, traffic resumed, capture taken.
    campaign::TrialSpec spec;
    spec.cfg = cfg;
    spec.point = fault::FaultPoint::kBValidStuck;
    spec.warmup_cycles = 800;
    spec.seed = 0xBADC0DE;
    spec.inject_delay_max = 100;
    spec.detect_budget = 2000;
    spec.exercise_recovery = true;
    const campaign::TrialResult r = campaign::finish_fault_trial(spec, *used);
    ASSERT_TRUE(r.detected && r.recovered && r.traffic_resumed);
    ASSERT_EQ(r.traces.size(), 1u);
    ASSERT_GT(r.traces[0].records.size(), 0u);
    expect_restore_matches_fresh_fork(warm, d, *used);
  }
  sim::global_log_level() = saved;
}

TEST(SnapshotRestoreIntoUsedNetlist, BusyCheshireThatKeptRunning) {
  tmu::TmuConfig cfg;
  cfg.adaptive.enabled = true;
  soc::SocDesc d = soc::cheshire_desc(cfg);
  axi::RandomTrafficConfig to_dram;
  to_dram.enabled = true;
  to_dram.p_new_txn = 0.2;
  to_dram.addr_min = soc::CheshireMap::kDramBase;
  to_dram.addr_max = soc::CheshireMap::kDramBase + 0x3FC0;
  axi::RandomTrafficConfig to_periph = to_dram;
  to_periph.p_new_txn = 0.1;
  to_periph.addr_min = soc::CheshireMap::kPeriphBase;
  to_periph.addr_max =
      soc::CheshireMap::kPeriphBase + soc::CheshireMap::kPeriphSize - 64;
  for (soc::ManagerDesc& m : d.managers) {
    if (m.name == "cva6_0" || m.name == "idma") m.traffic = to_dram;
    if (m.name == "cva6_1") m.traffic = to_periph;
  }
  const std::unique_ptr<soc::Soc> used = soc::SocBuilder::build(d);
  auto& dma = used->get<soc::IdmaEngine>("dma_engine");
  dma.submit({soc::CheshireMap::kDramBase, soc::CheshireMap::kDramBase + 0x8000,
              1024});
  used->sim().run(600);
  ASSERT_TRUE(dma.busy());
  const Snapshot warm = snapshot::capture(*used);

  // Keeps running traffic through the crossbar shards, the LLC and the
  // iDMA (a second job) before the restore.
  dma.submit({soc::CheshireMap::kDramBase + 0x1000,
              soc::CheshireMap::kDramBase + 0xC000, 64});
  used->sim().run(1500);
  expect_restore_matches_fresh_fork(warm, d, *used);
}

TEST(SnapshotRestoreIntoUsedNetlist, NestedHierGrid) {
  // The largest shape the round-trip fuzz above draws.
  soc::SocDesc d = soc::hier_grid_desc(3, 3, 2, 3);
  for (const sim::sched::SchedPolicy policy :
       {sim::sched::SchedPolicy::kEventDriven,
        sim::sched::SchedPolicy::kFullSweep}) {
    d.policy = policy;
    const std::unique_ptr<soc::Soc> used = soc::SocBuilder::build(d);
    used->sim().run(300);
    const Snapshot warm = snapshot::capture(*used);
    used->sim().run(700);
    expect_restore_matches_fresh_fork(warm, d, *used);
  }
}

}  // namespace
