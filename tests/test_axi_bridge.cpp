// axi::Bridge unit tests: transparent feed-through, per-crossing
// latency, ID compaction/restoration under saturation, in-flight state
// loss on hw_reset, and the DECERR containment contract — a request into
// a hole of a cluster's sub-windows terminates at the cluster crossbar
// with DECERR instead of stalling (or mis-decoding at) the parent level.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "axi/bridge.hpp"
#include "axi/crossbar.hpp"
#include "axi/memory.hpp"
#include "axi/traffic_gen.hpp"
#include "sim/bytes.hpp"
#include "sim/kernel.hpp"
#include "sim/state.hpp"
#include "soc/builder.hpp"
#include "state_bytes.hpp"

namespace {

using namespace axi;

/// gen -> bridge -> mem, with the downstream link exposed for snooping.
struct BridgeFixture {
  Link up, down;
  TrafficGenerator gen;
  Bridge bridge;
  MemorySubordinate mem;
  sim::Simulator s;

  explicit BridgeFixture(BridgeConfig cfg, std::uint64_t seed = 1)
      : gen("gen", up, seed), bridge("bridge", up, down, cfg), mem("mem", down) {
    s.add(gen);
    s.add(bridge);
    s.add(mem);
    s.reset();
  }

  /// Cycle at which `n` transactions are complete (asserts it happens).
  std::uint64_t completion_cycle(std::size_t n, std::uint64_t budget = 2000) {
    EXPECT_TRUE(s.run_until([&] { return gen.completed() >= n; }, budget))
        << "only " << gen.completed() << "/" << n << " completed";
    return gen.records().empty() ? 0 : gen.records().back().complete_cycle;
  }
};

/// Reference: the same generator wired straight into the memory.
struct DirectFixture {
  Link l;
  TrafficGenerator gen;
  MemorySubordinate mem;
  sim::Simulator s;

  explicit DirectFixture(std::uint64_t seed = 1)
      : gen("gen", l, seed), mem("mem", l) {
    s.add(gen);
    s.add(mem);
    s.reset();
  }
};

TEST(AxiBridge, ConfigValidation) {
  Link up, down;
  BridgeConfig mixed;
  mixed.req_latency = 0;
  mixed.rsp_latency = 1;
  EXPECT_THROW(Bridge("b", up, down, mixed), std::invalid_argument);
  BridgeConfig remap0;
  remap0.req_latency = 0;
  remap0.rsp_latency = 0;
  remap0.id_remap = true;
  EXPECT_THROW(Bridge("b", up, down, remap0), std::invalid_argument);
  BridgeConfig noid;
  noid.id_remap = true;
  noid.max_ids = 0;
  EXPECT_THROW(Bridge("b", up, down, noid), std::invalid_argument);
  BridgeConfig nofifo;
  nofifo.fifo_depth = 0;
  EXPECT_THROW(Bridge("b", up, down, nofifo), std::invalid_argument);
}

// A transparent bridge is a wire pair: identical per-cycle behaviour to
// the direct wiring, and zero registered state (idle costs no evals).
TEST(AxiBridge, TransparentIsCycleExactWire) {
  BridgeConfig cfg;
  cfg.req_latency = 0;
  cfg.rsp_latency = 0;
  BridgeFixture a(cfg, 42);
  DirectFixture b(42);
  EXPECT_TRUE(a.bridge.transparent());

  RandomTrafficConfig rc;
  rc.enabled = true;
  rc.p_new_txn = 0.3;
  rc.len_max = 7;
  a.gen.set_random(rc);
  b.gen.set_random(rc);

  for (std::uint64_t c = 0; c < 600; ++c) {
    a.s.step();
    b.s.step();
    ASSERT_TRUE(a.up.req.read() == b.l.req.read()) << "req @ " << c;
    ASSERT_TRUE(a.up.rsp.read() == b.l.rsp.read()) << "rsp @ " << c;
    ASSERT_TRUE(a.down.req.read() == b.l.req.read()) << "down.req @ " << c;
  }
  EXPECT_EQ(a.gen.completed(), b.gen.completed());
  EXPECT_GT(a.gen.completed(), 0u);
  EXPECT_EQ(a.gen.data_mismatches(), 0u);
  EXPECT_FALSE(a.bridge.tick_changed_eval_state());
}

// Each crossing adds its configured latency: a single transaction's
// completion shifts by exactly req_latency + rsp_latency.
TEST(AxiBridge, LatencyShiftsCompletionByConfiguredCycles) {
  const TxnDesc wr{true, 2, 0x100, 3, 3, Burst::kIncr};
  const TxnDesc rd{false, 3, 0x100, 3, 3, Burst::kIncr};
  DirectFixture ref;
  ref.gen.push(wr);
  ASSERT_TRUE(ref.s.run_until([&] { return ref.gen.completed() >= 1; }, 500));
  const std::uint64_t direct_wr = ref.gen.records()[0].complete_cycle;
  ref.gen.push(rd);
  ASSERT_TRUE(ref.s.run_until([&] { return ref.gen.completed() >= 2; }, 500));
  const std::uint64_t direct_rd =
      ref.gen.records()[1].complete_cycle - ref.gen.records()[1].issue_cycle;

  for (const auto& [req_lat, rsp_lat] : {std::pair<std::uint32_t,
                                                   std::uint32_t>{1, 1},
                                         {2, 3}}) {
    BridgeConfig cfg;
    cfg.req_latency = req_lat;
    cfg.rsp_latency = rsp_lat;
    BridgeFixture f(cfg);
    f.gen.push(wr);
    EXPECT_EQ(f.completion_cycle(1), direct_wr + req_lat + rsp_lat)
        << req_lat << "/" << rsp_lat;
    f.gen.push(rd);
    f.completion_cycle(2);
    EXPECT_EQ(f.gen.records()[1].complete_cycle -
                  f.gen.records()[1].issue_cycle,
              direct_rd + req_lat + rsp_lat)
        << req_lat << "/" << rsp_lat;
  }
}

// tIDs are 8 bits, so a remapping bridge has at most 256 slots.
TEST(AxiBridge, RemapsAtMost256Ids) {
  Link up, down;
  BridgeConfig cfg;
  cfg.id_remap = true;
  cfg.max_ids = 256;
  EXPECT_NO_THROW(Bridge("b", up, down, cfg));
  cfg.max_ids = 257;
  try {
    Bridge("b", up, down, cfg);
    ADD_FAILURE() << "a bridge remapping 257 IDs was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "Bridge 'b': id_remap with max_ids = 257 above 256"),
              std::string::npos)
        << e.what();
  }
}

// ID remap: wide upstream IDs (as left by a parent crossbar's manager
// prefix) are compacted to tIDs < max_ids downstream and restored on the
// way back; the generator's own response matching proves restoration.
TEST(AxiBridge, IdRemapCompactsDownstreamAndRestoresUpstream) {
  BridgeConfig cfg;
  cfg.id_remap = true;
  cfg.max_ids = 4;
  BridgeFixture f(cfg);
  const Id wide_ids[] = {0x137, 0x299, 0x5AB, 0x7FF};
  std::size_t n = 0;
  for (const Id id : wide_ids) {
    f.gen.push(TxnDesc{true, id, 0x1000 + 0x40 * n, 3, 3, Burst::kIncr});
    f.gen.push(TxnDesc{false, id, 0x1000 + 0x40 * n, 3, 3, Burst::kIncr});
    n += 2;
  }

  std::set<Id> seen_down;
  for (std::uint64_t c = 0; c < 600 && f.gen.completed() < n; ++c) {
    f.s.step();
    const AxiReq& q = f.down.req.read();
    if (q.aw_valid) seen_down.insert(q.aw.id);
    if (q.ar_valid) seen_down.insert(q.ar.id);
  }
  ASSERT_EQ(f.gen.completed(), n);
  EXPECT_EQ(f.gen.data_mismatches(), 0u);
  EXPECT_FALSE(seen_down.empty());
  for (const Id id : seen_down) EXPECT_LT(id, cfg.max_ids);
  // All slots drained once quiescent.
  EXPECT_EQ(f.bridge.active_write_ids(), 0u);
  EXPECT_EQ(f.bridge.active_read_ids(), 0u);
  EXPECT_EQ(f.bridge.writes_forwarded(), n / 2);
  EXPECT_EQ(f.bridge.reads_forwarded(), n / 2);
}

// max_ids = 1 serializes distinct upstream IDs (new IDs stall at the
// bridge until the slot frees) but everything still completes, in order.
TEST(AxiBridge, IdRemapperSaturationStallsWithoutDeadlock) {
  BridgeConfig cfg;
  cfg.id_remap = true;
  cfg.max_ids = 1;
  BridgeFixture f(cfg);
  for (Id id = 0; id < 6; ++id) {
    f.gen.push(TxnDesc{true, static_cast<Id>(0x40 + id), 0x2000 + 0x40 * id, 1,
                       3, Burst::kIncr});
  }
  for (std::uint64_t c = 0; c < 1200 && f.gen.completed() < 6; ++c) {
    f.s.step();
    ASSERT_LE(f.bridge.active_write_ids(), 1u) << "cycle " << c;
  }
  EXPECT_EQ(f.gen.completed(), 6u);
  EXPECT_EQ(f.gen.error_responses(), 0u);
}

// The remapper finds a busy ID's tID by scanning its slots, so two busy
// slots holding one ID would hide the second: a restore refuses them.
TEST(AxiBridge, RestoreRejectsTwoBusySlotsOfOneId) {
  BridgeConfig cfg;
  cfg.id_remap = true;
  cfg.max_ids = 2;
  cfg.req_latency = 40;  // both writes stay outstanding while captured
  BridgeFixture f(cfg);
  f.gen.push(TxnDesc{true, 0x55, 0x1000, 0, 3, Burst::kIncr});
  f.gen.push(TxnDesc{true, 0x77, 0x1040, 0, 3, Burst::kIncr});
  f.s.run(10);
  ASSERT_EQ(f.bridge.active_write_ids(), 2u);
  std::vector<unsigned char> image = state_bytes::state_of(f.bridge);
  // The write slots as the walk writes them: ID, then outstanding count.
  const std::uint32_t fields[] = {0x55, 1, 0x77, 1};
  std::vector<unsigned char> slots(sizeof(fields));
  for (std::size_t i = 0; i < 4; ++i) {
    sim::bytes::store_le(&slots[4 * i], fields[i]);
  }
  const auto at =
      std::search(image.begin(), image.end(), slots.begin(), slots.end());
  ASSERT_NE(at, image.end());
  sim::bytes::store_le(&at[8], std::uint32_t{0x55});

  BridgeFixture g(cfg);
  state_bytes::LoadBytes load(image);
  try {
    g.bridge.visit_state(load);
    ADD_FAILURE() << "two busy slots of ID 0x55 were restored";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "ID remapper slots 0 and 1 both map busy ID 85"),
              std::string::npos)
        << e.what();
  }
}

// hw_reset drops staged flits and ID mappings (a domain reset severing
// the cluster). After resetting the downstream endpoint as the same
// domain reset would, fresh traffic flows normally.
TEST(AxiBridge, HwResetDropsInflightStateAndRecovers) {
  BridgeConfig cfg;
  cfg.id_remap = true;
  cfg.max_ids = 8;
  cfg.req_latency = 4;  // wide window: flits are staged when we cut
  cfg.rsp_latency = 4;
  BridgeFixture f(cfg);
  f.gen.push(TxnDesc{true, 5, 0x3000, 7, 3, Burst::kIncr});
  f.gen.push(TxnDesc{false, 6, 0x3000, 7, 3, Burst::kIncr});
  f.s.run(6);  // mid-flight: AW admitted, W beats staged
  EXPECT_GT(f.bridge.active_write_ids() + f.bridge.active_read_ids(), 0u);

  f.bridge.hw_reset();
  f.mem.hw_reset();  // the reset unit resets the whole domain
  f.s.run(2);
  EXPECT_EQ(f.bridge.active_write_ids(), 0u);
  EXPECT_EQ(f.bridge.active_read_ids(), 0u);

  // The generator still waits on the severed transactions; fresh ones
  // must flow through the cleared bridge regardless.
  const std::size_t before = f.gen.completed();
  f.gen.push(TxnDesc{true, 7, 0x4000, 3, 3, Burst::kIncr});
  EXPECT_TRUE(
      f.s.run_until([&] { return f.gen.completed() > before; }, 2000));
  EXPECT_EQ(f.gen.records().back().resp, Resp::kOkay);
}

// Idle bridges cost zero evals: once quiescent, tick() reports no
// eval-state change so the event-driven scheduler drops the module.
TEST(AxiBridge, IdleBridgeGoesQuiet) {
  BridgeFixture f(BridgeConfig{});
  f.gen.push(TxnDesc{true, 1, 0x100, 3, 3, Burst::kIncr});
  ASSERT_TRUE(f.s.run_until([&] { return f.gen.completed() >= 1; }, 500));
  f.s.run(4);  // drain the response-latency tail
  EXPECT_FALSE(f.bridge.tick_changed_eval_state());
}

// ------------------------------------------------------------------
// DECERR containment (builder-level): a request into the hole between a
// cluster's sub-windows dies with DECERR at the cluster crossbar. The
// parent crossbar decoded fine (the cluster window covers the hole), so
// its decode-error counter stays zero and nothing upstream stalls.
// ------------------------------------------------------------------

soc::SocDesc hole_desc() {
  soc::SocDesc d;
  d.name = "hole";
  soc::ManagerDesc gen;
  gen.name = "gen";
  d.managers = {gen};

  soc::SubordinateDesc cl;
  cl.name = "cl";
  cl.kind = soc::SubordinateKind::kCluster;
  cl.base = 0;
  cl.size = 0x2'0000;  // twice the leaf window: upper half is a hole
  soc::ClusterDesc c;
  c.id_shift = 8;
  c.bridge.id_remap = true;
  c.bridge.max_ids = 8;
  soc::SubordinateDesc mem0;
  mem0.name = "mem0";
  mem0.base = 0;
  mem0.size = 0x1'0000;
  c.subordinates = {mem0};
  cl.cluster = {c};
  d.subordinates = {cl};
  return d;
}

TEST(AxiBridge, ClusterHoleTerminatesDecErrAtClusterLevel) {
  const auto soc = soc::SocBuilder::build(hole_desc());
  auto& gen = soc->get<TrafficGenerator>("gen");
  gen.push(TxnDesc{true, 1, 0x0'8000, 3, 3, Burst::kIncr});   // mapped
  gen.push(TxnDesc{true, 2, 0x1'8000, 3, 3, Burst::kIncr});   // hole
  gen.push(TxnDesc{false, 3, 0x1'9000, 3, 3, Burst::kIncr});  // hole
  gen.push(TxnDesc{false, 4, 0x0'9000, 0, 3, Burst::kIncr});  // mapped
  ASSERT_TRUE(
      soc->sim().run_until([&] { return gen.completed() >= 4; }, 2000))
      << "a hole request hung the SoC (completed " << gen.completed() << ")";
  EXPECT_EQ(gen.error_responses(), 2u);
  std::size_t decerr = 0;
  for (const TxnRecord& r : gen.records()) {
    if (r.resp == Resp::kDecErr) ++decerr;
  }
  EXPECT_EQ(decerr, 2u);
  EXPECT_EQ(soc->get<Crossbar>("xbar").decode_errors(), 0u);
  EXPECT_EQ(soc->get<Crossbar>("cl.xbar").decode_errors(), 2u);
  // The bridge itself drained cleanly.
  auto& b = soc->get<Bridge>("cl");
  EXPECT_EQ(b.active_write_ids(), 0u);
  EXPECT_EQ(b.active_read_ids(), 0u);
}

}  // namespace
