// Crossbar link goldens: the sharded crossbar must reproduce, on every
// external link, the stream pinned in tests/data/xbar_goldens/hashes.txt
// — through random traffic, decode errors, injected handshake faults on
// both sides of the crossbar, busy -> idle -> busy transitions, both
// scheduler policies, crossbars wider than one 64-bit occupancy
// word, responses meeting across that word boundary and a reset
// mid-traffic. A netlist restored from a mid-burst capture must run
// wire-exact with the uninterrupted one. This is the crossbar gate
// scripts/check.sh runs alongside test_sched_equiv.
//
// A trace::Recorder on every external link captures the
// tmu-axi-trace-v1 stream, and each scenario pins one fnv1a64 digest
// per link through tests/goldens.hpp, which also says how a full run
// guards against unchecked keys and how TMU_GOLDENS_OUT re-pins them.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "axi/crossbar.hpp"
#include "axi/link.hpp"
#include "axi/memory.hpp"
#include "axi/traffic_gen.hpp"
#include "fault/injector.hpp"
#include "goldens.hpp"
#include "sim/kernel.hpp"
#include "sim/logger.hpp"
#include "sim/random.hpp"
#include "sim/state.hpp"
#include "state_bytes.hpp"
#include "trace/recorder.hpp"

namespace {

using namespace axi;
using sim::sched::SchedPolicy;

// Injected faults legitimately provoke protocol warnings; keep the
// determinism-gate output clean.
const bool g_quiet = [] {
  sim::global_log_level() = sim::LogLevel::kOff;
  return true;
}();

goldens::Goldens g_goldens("xbar_goldens");

// ---------------------------------------------------------------------------
// Netlist
// ---------------------------------------------------------------------------

/// What a netlist's traffic looks like beyond its grid size.
struct Scenario {
  /// Generators that issue random traffic; empty means all of them.
  std::vector<unsigned> active;
  /// The lowest 64 KiB window the traffic addresses. It runs up to the
  /// unmapped window n_s, so the DECERR paths always run.
  unsigned first_window = 0;
  /// Memory j answers B after 1 + j % 4 cycles and the first R beat
  /// after 2 + 3j % 5, so neighbouring subordinates can offer one
  /// manager a response in the same cycle; otherwise every memory is
  /// the default.
  bool staggered = false;
};

/// n_m generators -> crossbar -> n_s memories, each memory owning a
/// 64 KiB window; random traffic spills one window past the map so
/// DECERR paths are exercised too. A fault injector sits on manager 0's
/// request path and another between the crossbar and subordinate 0, so
/// injected faults hit the crossbar's arbitration and response muxes. A
/// recorder samples every external link.
struct XbarNet {
  unsigned n_m, n_s;
  Scenario sc;
  std::vector<std::unique_ptr<Link>> links;
  std::vector<std::unique_ptr<TrafficGenerator>> gens;
  std::vector<std::unique_ptr<MemorySubordinate>> mems;
  Link l_gen0;       // gen0 -> inj_m -> mgr port 0
  Link l_mem0;       // sub port 0 -> inj_s -> mem0
  fault::FaultInjector inj_m;
  fault::FaultInjector inj_s;
  std::unique_ptr<Crossbar> xbar;
  std::vector<std::unique_ptr<trace::Recorder>> recs;
  sim::Simulator s;

  std::vector<Link*> mgr_ports, sub_ports;

  XbarNet(unsigned n_mgrs, unsigned n_subs, std::uint64_t seed,
          Scenario scenario = {},
          SchedPolicy policy = SchedPolicy::kEventDriven)
      : n_m(n_mgrs),
        n_s(n_subs),
        sc(std::move(scenario)),
        inj_m("inj_m", l_gen0, mk_link()),
        inj_s("inj_s", mk_link(), l_mem0),
        s(policy) {
    // links[0] = manager port 0, links[1] = sub port 0 (made above).
    mgr_ports.push_back(links[0].get());
    sub_ports.push_back(links[1].get());
    gens.push_back(std::make_unique<TrafficGenerator>("gen0", l_gen0,
                                                      seed * 7 + 1));
    mems.push_back(
        std::make_unique<MemorySubordinate>("mem0", l_mem0, mem_cfg(0)));
    for (unsigned i = 1; i < n_m; ++i) {
      Link& l = mk_link();
      mgr_ports.push_back(&l);
      gens.push_back(std::make_unique<TrafficGenerator>(
          "gen" + std::to_string(i), l, seed * 7 + 1 + i));
    }
    for (unsigned j = 1; j < n_s; ++j) {
      Link& l = mk_link();
      sub_ports.push_back(&l);
      mems.push_back(std::make_unique<MemorySubordinate>(
          "mem" + std::to_string(j), l, mem_cfg(j)));
    }
    std::vector<AddrRange> map;
    for (unsigned j = 0; j < n_s; ++j) {
      map.push_back(AddrRange{j * 0x1'0000ull, 0x1'0000ull, j});
    }
    xbar = std::make_unique<Crossbar>("xbar", mgr_ports, sub_ports, map,
                                      /*id_shift=*/8);
    for (unsigned m = 0; m < n_m; ++m) {
      record("mgr" + std::to_string(m), *mgr_ports[m]);
    }
    for (unsigned j = 0; j < n_s; ++j) {
      record("sub" + std::to_string(j), *sub_ports[j]);
    }
    record("l_gen0", l_gen0);
    record("l_mem0", l_mem0);
    for (auto& g : gens) s.add(*g);
    s.add(inj_m);
    s.add(*xbar);
    s.add(inj_s);
    for (auto& m : mems) s.add(*m);
    for (auto& r : recs) s.add(*r);
    s.reset();
  }

  MemoryConfig mem_cfg(unsigned j) const {
    MemoryConfig c;
    if (sc.staggered) {
      c.b_latency = 1 + j % 4;
      c.r_first_latency = 2 + (3 * j) % 5;
    }
    return c;
  }

  Link& mk_link() {
    links.push_back(std::make_unique<Link>());
    return *links.back();
  }

  void record(const std::string& link_name, Link& l) {
    recs.push_back(
        std::make_unique<trace::Recorder>("rec_" + link_name, link_name, l));
  }

  /// The scenario's random traffic on, or every generator off.
  void set_traffic(bool on) {
    RandomTrafficConfig rc;
    rc.p_new_txn = 0.3;
    rc.len_max = 7;
    // One extra (unmapped) window: ~1 in (n_s + 1 - first_window)
    // transactions DECERRs.
    rc.addr_min = sc.first_window * 0x1'0000ull;
    rc.addr_max = (n_s + 1) * 0x1'0000ull - 8;
    for (unsigned i = 0; i < n_m; ++i) {
      bool listed = sc.active.empty();
      for (const unsigned a : sc.active) listed = listed || a == i;
      rc.enabled = on && listed;
      gens[i]->set_random(rc);
    }
  }

  std::size_t completed() const {
    std::size_t n = 0;
    for (const auto& g : gens) n += g->completed();
    return n;
  }

  fault::FaultInjector& injector_for(fault::FaultPoint p) {
    return fault::is_manager_side(p) ? inj_m : inj_s;
  }

  /// Some external link is inside a W or R burst (a beat that is not
  /// the last one is on the wires).
  bool mid_burst() const {
    for (const auto& l : links) {
      const AxiReq& q = l->req.read();
      const AxiRsp& r = l->rsp.read();
      if ((q.w_valid && !q.w.last) || (r.r_valid && !r.r.last)) return true;
    }
    return false;
  }

  /// The whole netlist's state in the snapshot layer's walk order:
  /// simulator checkpoint, link wires, then every registered module
  /// (the crossbar's shards included).
  void visit_state(sim::StateVisitor& v) {
    s.visit_checkpoint(v);
    for (const auto& l : links) {
      visit(v, l->req);
      visit(v, l->rsp);
    }
    for (Link* l : {&l_gen0, &l_mem0}) {
      visit(v, l->req);
      visit(v, l->rsp);
    }
    for (sim::Module* m : s.modules()) m->visit_state(v);
  }

  std::vector<unsigned char> capture() {
    s.settle();
    state_bytes::SaveBytes v;
    visit_state(v);
    return v.take_bytes();
  }

  void restore(const std::vector<unsigned char>& image) {
    state_bytes::LoadBytes v(image);
    visit_state(v);
    ASSERT_EQ(v.consumed(), image.size());
  }

  /// One digest per recorded link, in recorder order.
  std::vector<std::pair<std::string, std::uint64_t>> digests() const {
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (const auto& r : recs) {
      out.emplace_back(r->buffer().link, goldens::trace_digest(*r));
    }
    return out;
  }
};

void expect_links_equal(const Link& a, const Link& b, const std::string& which,
                        std::uint64_t cycle) {
  ASSERT_TRUE(a.req.read() == b.req.read())
      << which << ".req diverged at cycle " << cycle;
  ASSERT_TRUE(a.rsp.read() == b.rsp.read())
      << which << ".rsp diverged at cycle " << cycle;
}

/// Every externally visible wire of the two netlists, every cycle.
void expect_wires_equal(const XbarNet& a, const XbarNet& b,
                        std::uint64_t cycle) {
  for (unsigned m = 0; m < a.n_m; ++m) {
    expect_links_equal(*a.mgr_ports[m], *b.mgr_ports[m],
                       "mgr" + std::to_string(m), cycle);
  }
  for (unsigned s = 0; s < a.n_s; ++s) {
    expect_links_equal(*a.sub_ports[s], *b.sub_ports[s],
                       "sub" + std::to_string(s), cycle);
  }
  expect_links_equal(a.l_gen0, b.l_gen0, "l_gen0", cycle);
  expect_links_equal(a.l_mem0, b.l_mem0, "l_mem0", cycle);
}

/// Checks every link digest of the scenario against the goldens.
void check_goldens(const std::string& scenario, const XbarNet& net) {
  for (const auto& [link, digest] : net.digests()) {
    g_goldens.check(scenario + "/" + link, digest);
  }
}

std::string grid_name(const char* kind, unsigned n_m, unsigned n_s,
                      std::uint64_t seed) {
  return std::string(kind) + "_" + std::to_string(n_m) + "x" +
         std::to_string(n_s) + "_s" + std::to_string(seed);
}

/// Cycles in which subordinates 63 and 64 both offered one manager a B,
/// and an R.
struct Meets {
  std::size_t b = 0, r = 0;
};

/// One fuzzed scenario: random traffic with decode errors, one fault
/// armed/disarmed mid-run, then busy -> idle -> busy. Adds the
/// scenario's meets at ports 63 and 64 to `meets` when given.
void run_fuzz(unsigned n_m, unsigned n_s, std::uint64_t seed,
              const Scenario& sc = {}, Meets* meets = nullptr) {
  SCOPED_TRACE("grid=" + std::to_string(n_m) + "x" + std::to_string(n_s) +
               " seed=" + std::to_string(seed));
  sim::Rng rng(seed);

  XbarNet net(n_m, n_s, seed, sc);
  net.set_traffic(true);

  constexpr fault::FaultPoint kPoints[] = {
      fault::FaultPoint::kAwReadyStuck, fault::FaultPoint::kWReadyStuck,
      fault::FaultPoint::kBValidStuck,  fault::FaultPoint::kRValidStuck,
      fault::FaultPoint::kWValidStuck,  fault::FaultPoint::kSpuriousB,
      fault::FaultPoint::kBWrongId,
  };
  const fault::FaultPoint point =
      kPoints[rng.range(0, (sizeof(kPoints) / sizeof(kPoints[0])) - 1)];
  const std::uint64_t arm_at = rng.range(50, 200);
  const std::uint64_t disarm_at = arm_at + rng.range(100, 400);
  const std::uint64_t quiet_at = disarm_at + 400;
  const std::uint64_t resume_at = quiet_at + 200;
  const std::uint64_t total = resume_at + 400;

  for (std::uint64_t c = 0; c < total; ++c) {
    if (c == arm_at) net.injector_for(point).arm(point, arm_at);
    if (c == disarm_at) net.injector_for(point).disarm();
    if (c == quiet_at) net.set_traffic(false);
    if (c == resume_at) net.set_traffic(true);
    net.s.step();
    if (meets != nullptr) {
      const AxiRsp& lo = net.sub_ports[63]->rsp.read();
      const AxiRsp& hi = net.sub_ports[64]->rsp.read();
      meets->b += lo.b_valid && hi.b_valid && lo.b.id >> 8 == hi.b.id >> 8;
      meets->r += lo.r_valid && hi.r_valid && lo.r.id >> 8 == hi.r.id >> 8;
    }
  }
  EXPECT_GT(net.completed(), 0u);
  EXPECT_GT(net.xbar->decode_errors(), 0u);  // the DECERR path ran
  check_goldens(grid_name("lockstep", n_m, n_s, seed), net);
}

TEST(XbarShardEquiv, FuzzThroughFaultsAndIdle) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 1234ull, 0xC0FFEEull}) {
    run_fuzz(3, 2, seed);
  }
  run_fuzz(1, 4, 11);
  run_fuzz(4, 1, 12);
  run_fuzz(8, 6, 13);
}

// More than 64 managers or subordinates: the shards' occupancy masks
// span two 64-bit words, and ports 63 and 64 sit on either side of the
// word boundary. Wide manager sets keep a few generators active.
TEST(XbarShardEquiv, WiderThanOneMaskWord) {
  run_fuzz(70, 3, 21, {.active = {0, 1, 62, 63, 64, 69}});
  run_fuzz(3, 70, 22);
  run_fuzz(66, 65, 23, {.active = {0, 63, 64, 65}});
}

// The shards must stay exact under either kernel (the facade is not
// combinational, so both must skip it and evaluate the shards instead):
// the same netlist, run in the same chunks under each policy, matches
// one set of goldens.
TEST(XbarShardEquiv, EachPolicyMatchesGoldens) {
  for (const SchedPolicy policy :
       {SchedPolicy::kEventDriven, SchedPolicy::kFullSweep}) {
    SCOPED_TRACE(sim::sched::to_string(policy));
    XbarNet net(3, 2, 99, {}, policy);
    net.set_traffic(true);
    sim::Rng rng(5);
    for (int chunk = 0; chunk < 30; ++chunk) net.s.run(rng.range(1, 25));
    EXPECT_GT(net.completed(), 0u);
    check_goldens("policy_3x2_s99", net);
  }
}

// Simulator::reset() in the middle of bursts: every register, grant
// queue and internal shard wire returns to its power-on value, and the
// traffic that follows matches the goldens again.
TEST(XbarShardEquiv, ResetMidTrafficMatchesGoldens) {
  XbarNet net(5, 4, 31);
  net.set_traffic(true);
  for (std::uint64_t c = 0; c < 300 || !net.mid_burst(); ++c) {
    ASSERT_LT(c, 2000u) << "no burst in flight to reset";
    net.s.step();
  }
  net.s.reset();
  // The crossbar's state, internal wires included, is a power-on
  // crossbar's: reset forces back every occupied internal wire.
  XbarNet fresh(5, 4, 31);
  EXPECT_TRUE(state_bytes::state_of(*net.xbar) ==
              state_bytes::state_of(*fresh.xbar));
  for (int c = 0; c < 500; ++c) net.s.step();
  EXPECT_GT(net.completed(), 0u);
  check_goldens("reset_5x4_s31", net);
}

// A busy netlist captured mid-burst and restored — into a fresh netlist
// and into one that ran traffic of its own first, whose shards hold
// different bookkeeping — runs wire-exact with the uninterrupted
// netlist. Wide enough that the masks span two words.
TEST(XbarShardEquiv, RestoredMidBurstMatchesUninterrupted) {
  constexpr unsigned kM = 66, kS = 3;
  XbarNet live(kM, kS, 41, {.active = {0, 5, 63, 64, 65}});
  live.set_traffic(true);
  live.s.run(200);
  for (int i = 0; i < 2000 && !live.mid_burst(); ++i) live.s.step();
  ASSERT_TRUE(live.mid_burst());
  const std::vector<unsigned char> image = live.capture();

  XbarNet fresh(kM, kS, 41);
  XbarNet used(kM, kS, 43, {.active = {1, 2, 62, 64}});
  used.set_traffic(true);
  used.s.run(321);
  fresh.restore(image);
  used.restore(image);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_EQ(fresh.s.cycle(), live.s.cycle());
  ASSERT_EQ(used.s.cycle(), live.s.cycle());

  for (std::uint64_t c = 0; c < 500; ++c) {
    live.s.step();
    fresh.s.step();
    used.s.step();
    expect_wires_equal(live, fresh, c);
    expect_wires_equal(live, used, c);
    ASSERT_EQ(live.completed(), fresh.completed());
    ASSERT_EQ(live.completed(), used.completed());
    ASSERT_EQ(live.s.module_evals(), fresh.s.module_evals());
    ASSERT_EQ(live.s.module_evals(), used.s.module_evals());
    // Whole-netlist state, shard flags of the last edge included, right
    // after the restore and at the end.
    if (c < 8 || c == 499) {
      const std::vector<unsigned char> want = live.capture();
      ASSERT_EQ(fresh.capture(), want) << "cycle " << c;
      ASSERT_EQ(used.capture(), want) << "cycle " << c;
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(fresh.digests(), live.digests());
  EXPECT_EQ(used.digests(), live.digests());
}

// A capture taken while a DECERR write waits for its W beats, with
// every port quiet, restores into a facade that stays awake like the
// uninterrupted one: the restore rebuilds the mask of managers with
// queued DECERR responses from the loaded queues.
TEST(XbarShardEquiv, RestoredQueuedDecErrKeepsTheFacadeAwake) {
  XbarNet live(3, 2, 51);
  live.gens[2]->set_w_start_delay(12);
  live.gens[2]->push(TxnDesc{true, 1, 0x40'0000, 1, 3, Burst::kIncr});
  const Link& port = *live.mgr_ports[2];
  const auto quiet = [&] {
    return !port.req.read().aw_valid && !port.req.read().w_valid &&
           !port.rsp.read().b_valid;
  };
  for (int c = 0; c < 20 && (live.xbar->decode_errors() == 0 || !quiet());
       ++c) {
    live.s.step();
  }
  ASSERT_EQ(live.xbar->decode_errors(), 1u);
  ASSERT_TRUE(quiet());
  const std::vector<unsigned char> image = live.capture();

  XbarNet fresh(3, 2, 51);
  fresh.restore(image);
  if (::testing::Test::HasFatalFailure()) return;
  for (int c = 0; c < 100 && live.gens[2]->completed() == 0; ++c) {
    live.s.step();
    fresh.s.step();
    ASSERT_EQ(fresh.xbar->tick_idle(), live.xbar->tick_idle()) << "cycle " << c;
    ASSERT_EQ(fresh.capture(), live.capture()) << "cycle " << c;
  }
  EXPECT_EQ(fresh.gens[2]->completed(), 1u);
}

// An idle crossbar costs zero evals: after the netlist drains, no shard
// (and no other module) is woken until traffic resumes.
TEST(XbarShardEquiv, IdlePortsCostZeroEvals) {
  XbarNet net(4, 3, 21);
  net.set_traffic(true);
  net.s.run(300);
  net.set_traffic(false);
  net.s.run(200);  // drain everything in flight
  const std::uint64_t e0 = net.s.module_evals();
  net.s.run(100);
  EXPECT_EQ(net.s.module_evals() - e0, 0u);
}

// Subordinates 63 and 64 sit on either side of a mask word boundary.
// Traffic confined to windows 63-66 (66 unmapped) and memories of
// different latencies make both answer one manager in the same cycle,
// on B and on R, so the B/R round-robin pointers are exercised after a
// beat from port 64. Defined last: a re-pin appends these keys after
// the earlier scenarios'.
TEST(XbarShardEquiv, ResponsesMeetAtTheMaskWordBoundary) {
  const Scenario edge{.active = {}, .first_window = 63, .staggered = true};
  Meets meets;
  run_fuzz(2, 66, 24, edge, &meets);
  run_fuzz(1, 66, 25, edge, &meets);
  EXPECT_GT(meets.b, 0u);
  EXPECT_GT(meets.r, 0u);
}

}  // namespace
