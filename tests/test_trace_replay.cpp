// Record -> replay equivalence: a trace::TraceTrafficGen driven by a
// stream a trace::Recorder captured must reproduce the recording run on
// the recording topology — subordinate-side traffic, memory state and
// probe metrics byte-identical. Pinned on the IP-level testbench, on
// the full Cheshire SoC under BOTH scheduler policies, on a
// retract-heavy handshake, and against the committed fixture; plus the
// recorder's capture bound.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "axi/link.hpp"
#include "axi/memory.hpp"
#include "axi/traffic_gen.hpp"
#include "obs/metrics.hpp"
#include "sim/bytes.hpp"
#include "sim/kernel.hpp"
#include "soc/builder.hpp"
#include "soc/topologies.hpp"
#include "trace/format.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"

namespace {

using sim::sched::SchedPolicy;

std::uint64_t memory_fingerprint(const axi::MemorySubordinate& mem,
                                 axi::Addr base, axi::Addr size) {
  std::string bytes;
  for (axi::Addr a = base; a < base + size; ++a) {
    bytes += static_cast<char>(mem.peek(a));
  }
  return sim::bytes::fnv1a64(bytes);
}

// -------------------------- IP testbench -------------------------------

TEST(TraceReplay, IpTestbenchRoundTripIsByteIdentical) {
  constexpr std::uint64_t kCycles = 1500;
  soc::SocDesc d = soc::ip_testbench_desc();
  d.managers.front().seed = 7;
  d.managers.front().traffic.enabled = true;
  d.traces.push_back(soc::TraceDesc{"cap_gen", "gen.out"});
  d.traces.push_back(soc::TraceDesc{"cap_mem", "mem.in"});

  const auto rec_soc = soc::SocBuilder::build(d);
  rec_soc->sim().run(kCycles);
  const trace::TraceBuffer gen_stream =
      rec_soc->get<trace::Recorder>("cap_gen").buffer();
  ASSERT_GT(gen_stream.records.size(), 100u);
  EXPECT_EQ(gen_stream.link, "gen.out");
  EXPECT_EQ(gen_stream.topology_hash, d.hash());
  EXPECT_EQ(rec_soc->get<trace::Recorder>("cap_gen").drop_count(), 0u);

  soc::SocDesc rd = d;
  rd.managers.front().kind = soc::ManagerKind::kTraceReplay;
  rd.managers.front().traffic = {};
  const auto rep_soc = soc::SocBuilder::build(rd);
  auto& replayer = rep_soc->get<trace::TraceTrafficGen>("gen");
  replayer.set_stream(gen_stream);
  rep_soc->sim().run(kCycles);

  EXPECT_TRUE(replayer.done())
      << replayer.events_replayed() << "/" << replayer.events_total();
  EXPECT_EQ(rep_soc->get<trace::Recorder>("cap_mem").buffer().records,
            rec_soc->get<trace::Recorder>("cap_mem").buffer().records);
  // The manager-side capture reproduces too: request wires identical.
  EXPECT_EQ(rep_soc->get<trace::Recorder>("cap_gen").buffer().records,
            gen_stream.records);
  EXPECT_EQ(memory_fingerprint(rep_soc->get<axi::MemorySubordinate>("mem"),
                               0, 0x10000),
            memory_fingerprint(rec_soc->get<axi::MemorySubordinate>("mem"),
                               0, 0x10000));
}

// ---------------------------- Cheshire ---------------------------------

// The full Fig. 10 SoC: three traffic-gen managers aimed at the three
// endpoint windows (DRAM behind the LLC, the guarded Ethernet IP, the
// guarded peripheral), captures on every manager port and every
// endpoint feed, a latency probe on the DRAM feed. Record, then swap
// all three managers for replayers and compare everything downstream.
void cheshire_round_trip(SchedPolicy policy) {
  constexpr std::uint64_t kCycles = 800;
  soc::SocDesc d = soc::cheshire_desc({});
  d.policy = policy;
  const std::uint64_t windows[3][2] = {
      {soc::CheshireMap::kDramBase, 0x1'0000},
      {soc::CheshireMap::kEthBase, 0x800},
      {soc::CheshireMap::kPeriphBase, 0x1'0000},
  };
  for (int i = 0; i < 3; ++i) {
    soc::ManagerDesc& m = d.managers[i];
    m.traffic.enabled = true;
    m.traffic.p_new_txn = 0.25;
    m.traffic.len_max = 7;
    m.traffic.addr_min = windows[i][0];
    m.traffic.addr_max = windows[i][0] + windows[i][1] - 8;
  }
  for (const char* mgr : {"cva6_0", "cva6_1", "idma"}) {
    d.traces.push_back(
        soc::TraceDesc{std::string("cap_") + mgr, std::string(mgr) + ".out"});
  }
  for (const char* ep : {"dram", "ethernet", "periph"}) {
    d.traces.push_back(
        soc::TraceDesc{std::string("ep_") + ep, std::string(ep) + ".in"});
  }
  d.probes.push_back(soc::ProbeDesc{"probe_dram", "dram.in"});

  const auto rec_soc = soc::SocBuilder::build(d);
  rec_soc->sim().run(kCycles);

  soc::SocDesc rd = d;
  for (int i = 0; i < 3; ++i) {
    rd.managers[i].kind = soc::ManagerKind::kTraceReplay;
    rd.managers[i].traffic = {};
  }
  const auto rep_soc = soc::SocBuilder::build(rd);
  for (const char* mgr : {"cva6_0", "cva6_1", "idma"}) {
    const trace::TraceBuffer stream =
        rec_soc->get<trace::Recorder>(std::string("cap_") + mgr).buffer();
    ASSERT_GT(stream.records.size(), 50u) << mgr;
    rep_soc->get<trace::TraceTrafficGen>(mgr).set_stream(stream);
  }
  rep_soc->sim().run(kCycles);

  for (const char* mgr : {"cva6_0", "cva6_1", "idma"}) {
    EXPECT_TRUE(rep_soc->get<trace::TraceTrafficGen>(mgr).done()) << mgr;
  }
  for (const soc::TraceDesc& td : d.traces) {
    EXPECT_EQ(rep_soc->get<trace::Recorder>(td.name).buffer().records,
              rec_soc->get<trace::Recorder>(td.name).buffer().records)
        << td.name << " (" << td.link << ")";
  }
  EXPECT_EQ(memory_fingerprint(rep_soc->get<axi::MemorySubordinate>("dram"),
                               soc::CheshireMap::kDramBase, 0x1'0000),
            memory_fingerprint(rec_soc->get<axi::MemorySubordinate>("dram"),
                               soc::CheshireMap::kDramBase, 0x1'0000));
  EXPECT_EQ(memory_fingerprint(rep_soc->get<axi::MemorySubordinate>("periph"),
                               soc::CheshireMap::kPeriphBase, 0x1'0000),
            memory_fingerprint(rec_soc->get<axi::MemorySubordinate>("periph"),
                               soc::CheshireMap::kPeriphBase, 0x1'0000));
  // Probe metrics and recorder counters land in the registry with the
  // same names in both runs; identical traffic means an identical
  // snapshot (to_json is deterministic, so string compare is exact).
  EXPECT_EQ(rep_soc->metrics().snapshot().to_json(),
            rec_soc->metrics().snapshot().to_json());
}

TEST(TraceReplay, CheshireRoundTripEventDriven) {
  cheshire_round_trip(SchedPolicy::kEventDriven);
}

TEST(TraceReplay, CheshireRoundTripFullSweep) {
  cheshire_round_trip(SchedPolicy::kFullSweep);
}

// A stream recorded under one scheduler policy replays identically
// under the other: the trace pins wire behaviour, which the policies
// must agree on.
TEST(TraceReplay, StreamRecordedEventDrivenReplaysUnderFullSweep) {
  constexpr std::uint64_t kCycles = 1000;
  soc::SocDesc d = soc::ip_testbench_desc();
  d.policy = SchedPolicy::kEventDriven;
  d.managers.front().seed = 11;
  d.managers.front().traffic.enabled = true;
  d.traces.push_back(soc::TraceDesc{"cap_gen", "gen.out"});
  d.traces.push_back(soc::TraceDesc{"cap_mem", "mem.in"});
  const auto rec_soc = soc::SocBuilder::build(d);
  rec_soc->sim().run(kCycles);

  soc::SocDesc rd = d;
  rd.policy = SchedPolicy::kFullSweep;
  rd.managers.front().kind = soc::ManagerKind::kTraceReplay;
  rd.managers.front().traffic = {};
  const auto rep_soc = soc::SocBuilder::build(rd);
  rep_soc->get<trace::TraceTrafficGen>("gen").set_stream(
      rec_soc->get<trace::Recorder>("cap_gen").buffer());
  rep_soc->sim().run(kCycles);
  EXPECT_EQ(rep_soc->get<trace::Recorder>("cap_mem").buffer().records,
            rec_soc->get<trace::Recorder>("cap_mem").buffer().records);
}

// ----------------------------- retracts --------------------------------

// Forces an AW retract: with max_outstanding == 1 the generator
// multiplexes one write and one read onto the link; the memory accepts
// AR immediately but stalls AW for 5 cycles, so the generator presents
// AW, gives up in favour of the read, and re-presents later. The
// recording must carry the retract, and the replay must still converge.
TEST(TraceReplay, RetractedPresentationsReplayExactly) {
  axi::MemoryConfig cfg;
  cfg.aw_accept_latency = 5;
  cfg.ar_accept_latency = 0;

  axi::Link rec_link;
  axi::TrafficGenerator gen("gen", rec_link);
  axi::MemorySubordinate rec_mem("mem", rec_link, cfg);
  trace::Recorder rec("cap", "gen.out", rec_link);
  sim::Simulator rs;
  rs.add(gen);
  rs.add(rec_mem);
  rs.add(rec);
  rs.reset();
  gen.set_max_outstanding(1);
  gen.push(axi::TxnDesc{true, 2, 0x100, 3, 3, axi::Burst::kIncr});
  gen.push(axi::TxnDesc{false, 1, 0x200, 3, 3, axi::Burst::kIncr});
  ASSERT_TRUE(rs.run_until([&] { return gen.completed() >= 2; }, 400));
  rs.run(4);  // drain trailing handshakes

  std::size_t retracts = 0;
  for (const trace::TraceRecord& r : rec.buffer().records) {
    if (r.retract) ++retracts;
  }
  ASSERT_GE(retracts, 1u) << "scenario no longer provokes a retract";

  axi::Link rep_link;
  trace::TraceTrafficGen rep("gen", rep_link);
  axi::MemorySubordinate rep_mem("mem", rep_link, cfg);
  trace::Recorder check("cap", "gen.out", rep_link);
  sim::Simulator ps;
  ps.add(rep);
  ps.add(rep_mem);
  ps.add(check);
  ps.reset();
  rep.set_stream(rec.buffer());
  ps.run(rs.cycle());

  EXPECT_TRUE(rep.done());
  EXPECT_EQ(check.buffer().records, rec.buffer().records);
  for (axi::Addr a = 0x100; a < 0x120; ++a) {
    EXPECT_EQ(rep_mem.peek(a), rec_mem.peek(a)) << "addr 0x" << std::hex << a;
  }
}

// --------------------------- capture bound -----------------------------

// A 16-beat write is far more than 4 records: the recorder keeps the
// first 4, counts the rest as dropped in the registry too, and reset()
// clears the capture but not the registry slots (the registry owner
// picks snapshot boundaries, like LatencyProbe).
TEST(TraceRecorder, CaptureBoundCountsDropsInTheRegistry) {
  axi::Link link;
  axi::TrafficGenerator gen("gen", link);
  axi::MemorySubordinate mem("mem", link);
  obs::MetricsRegistry reg;
  trace::Recorder small("small", "gen.out", link, /*topology_hash=*/0,
                        /*capacity=*/4, &reg);
  sim::Simulator s;
  s.add(gen);
  s.add(mem);
  s.add(small);
  s.reset();
  gen.push(axi::TxnDesc{true, 0, 0x0, 15, 3, axi::Burst::kIncr});
  ASSERT_TRUE(s.run_until([&] { return gen.completed() >= 1; }, 300));

  EXPECT_EQ(small.buffer().records.size(), 4u);
  const std::uint64_t dropped = small.drop_count();
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(reg.counter("small.dropped").value(), dropped);
  EXPECT_EQ(reg.counter("small.records").value(), 4u);

  s.reset();
  EXPECT_TRUE(small.buffer().records.empty());
  EXPECT_EQ(small.drop_count(), 0u);
  EXPECT_EQ(reg.counter("small.records").value(), 4u);
  EXPECT_EQ(reg.counter("small.dropped").value(), dropped);
}

// ------------------------- committed fixture ---------------------------

// The pinned stream must keep driving the testbench to the same end
// state a live recording run reaches — loaded through the declarative
// trace_path so the builder's file frontend is covered too.
TEST(TraceReplayFixture, FixtureDrivesTestbenchLikeALiveRun) {
  constexpr std::uint64_t kSeed = 42;     // how the fixture was recorded
  constexpr std::uint64_t kCycles = 2000; // (see examples/trace_replay.cpp)
  soc::SocDesc d = soc::ip_testbench_desc();
  d.managers.front().seed = kSeed;
  d.managers.front().traffic.enabled = true;
  d.traces.push_back(soc::TraceDesc{"cap_mem", "mem.in"});
  const auto rec_soc = soc::SocBuilder::build(d);
  rec_soc->sim().run(kCycles);

  soc::SocDesc rd = d;
  rd.managers.front().kind = soc::ManagerKind::kTraceReplay;
  rd.managers.front().traffic = {};
  rd.managers.front().trace_path =
      std::string(TMU_TEST_DATA_DIR) + "/ip_testbench_gen.axitrace";
  const auto rep_soc = soc::SocBuilder::build(rd);
  rep_soc->sim().run(kCycles);

  EXPECT_TRUE(rep_soc->get<trace::TraceTrafficGen>("gen").done());
  EXPECT_EQ(rep_soc->get<trace::Recorder>("cap_mem").buffer().records,
            rec_soc->get<trace::Recorder>("cap_mem").buffer().records);
  EXPECT_EQ(memory_fingerprint(rep_soc->get<axi::MemorySubordinate>("mem"),
                               0, 0x10000),
            memory_fingerprint(rec_soc->get<axi::MemorySubordinate>("mem"),
                               0, 0x10000));
}

}  // namespace
