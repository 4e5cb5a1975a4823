// Scheduler-equivalence lockstep fuzz: the event-driven dirty-set
// scheduler must be cycle-exact against the full-sweep kernel. Two
// identically seeded netlists — the paper's IP-level fault testbench
// and the full Cheshire SoC — run in lockstep under
// SchedPolicy::kFullSweep and SchedPolicy::kEventDriven; every cycle,
// every reachable wire and every observable campaign outcome (fault
// detection, recovery, completed traffic) must match exactly.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "axi/link.hpp"
#include "axi/memory.hpp"
#include "axi/traffic_gen.hpp"
#include "fault/injector.hpp"
#include "sim/kernel.hpp"
#include "sim/random.hpp"
#include "sim/state.hpp"
#include "snapshot/snapshot.hpp"
#include "soc/builder.hpp"
#include "soc/cpu_stub.hpp"
#include "soc/reset_unit.hpp"
#include "soc/topologies.hpp"
#include "state_bytes.hpp"
#include "tmu/tmu.hpp"

namespace {

using sim::sched::SchedPolicy;

// The Fig. 8/9 IP-level testbench (mirrors campaign::run_fault_trial):
// gen -> [mgr injector] -> TMU -> [sub injector] -> memory, plus the
// external reset unit. Every wire is reachable for exact comparison.
struct IpNetlist {
  axi::Link l_gen, l_tmu_mst, l_tmu_sub, l_mem;
  axi::TrafficGenerator gen;
  fault::FaultInjector inj_m{"inj_m", l_gen, l_tmu_mst};
  tmu::Tmu tmu;
  fault::FaultInjector inj_s{"inj_s", l_tmu_sub, l_mem};
  axi::MemorySubordinate mem{"mem", l_mem};
  soc::ResetUnit rst;
  sim::Simulator s;

  IpNetlist(SchedPolicy policy, std::uint64_t seed,
            const tmu::TmuConfig& cfg)
      : gen("gen", l_gen, seed),
        tmu("tmu", l_tmu_mst, l_tmu_sub, cfg),
        rst("rst", tmu.reset_req, tmu.reset_ack, [this] { mem.hw_reset(); }),
        s(policy) {
    s.add(gen);
    s.add(inj_m);
    s.add(tmu);
    s.add(inj_s);
    s.add(mem);
    s.add(rst);
    s.reset();
  }

  fault::FaultInjector& injector_for(fault::FaultPoint p) {
    return fault::is_manager_side(p) ? inj_m : inj_s;
  }
};

void expect_links_equal(const axi::Link& a, const axi::Link& b,
                        const char* which, std::uint64_t cycle) {
  EXPECT_TRUE(a.req.read() == b.req.read())
      << which << ".req diverged at cycle " << cycle;
  EXPECT_TRUE(a.rsp.read() == b.rsp.read())
      << which << ".rsp diverged at cycle " << cycle;
}

// Compares every wire of the two IP netlists.
void expect_wires_equal(const IpNetlist& a, const IpNetlist& b,
                        std::uint64_t cycle) {
  expect_links_equal(a.l_gen, b.l_gen, "l_gen", cycle);
  expect_links_equal(a.l_tmu_mst, b.l_tmu_mst, "l_tmu_mst", cycle);
  expect_links_equal(a.l_tmu_sub, b.l_tmu_sub, "l_tmu_sub", cycle);
  expect_links_equal(a.l_mem, b.l_mem, "l_mem", cycle);
  EXPECT_EQ(a.tmu.irq.read(), b.tmu.irq.read()) << "irq @" << cycle;
  EXPECT_EQ(a.tmu.reset_req.read(), b.tmu.reset_req.read())
      << "reset_req @" << cycle;
  EXPECT_EQ(a.tmu.reset_ack.read(), b.tmu.reset_ack.read())
      << "reset_ack @" << cycle;
}

// One fuzzed lockstep scenario: random traffic, one random fault
// armed/disarmed at random cycles, compared wire-for-wire every cycle.
void run_ip_lockstep(std::uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  sim::Rng rng(seed);

  tmu::TmuConfig cfg;
  cfg.adaptive.enabled = rng.chance(0.5);
  if (rng.chance(0.3)) {
    cfg.variant = tmu::Variant::kTinyCounter;
    cfg.tc_total_budget = 200;
  }

  IpNetlist full(SchedPolicy::kFullSweep, seed, cfg);
  IpNetlist event(SchedPolicy::kEventDriven, seed, cfg);

  axi::RandomTrafficConfig rc;
  rc.enabled = true;
  rc.p_new_txn = 0.3;
  rc.len_max = 7;
  full.gen.set_random(rc);
  event.gen.set_random(rc);

  // One fault point drawn per scenario, armed mid-run, disarmed later.
  constexpr fault::FaultPoint kPoints[] = {
      fault::FaultPoint::kAwReadyStuck, fault::FaultPoint::kWReadyStuck,
      fault::FaultPoint::kBValidStuck,  fault::FaultPoint::kRValidStuck,
      fault::FaultPoint::kWValidStuck,  fault::FaultPoint::kSpuriousB,
  };
  const fault::FaultPoint point =
      kPoints[rng.range(0, (sizeof(kPoints) / sizeof(kPoints[0])) - 1)];
  const std::uint64_t arm_at = rng.range(50, 300);
  const std::uint64_t disarm_at = arm_at + rng.range(300, 900);
  // After recovery, drop to a fully idle stretch (traffic off, netlist
  // drains) and back: the precise post-edge invalidation (per-module
  // tick_changed_eval_state reports) must stay exact through busy→idle
  // and idle→busy transitions.
  const std::uint64_t quiet_at = disarm_at + 500;
  const std::uint64_t resume_at = quiet_at + 400;
  const std::uint64_t total = resume_at + 500;

  for (std::uint64_t c = 0; c < total; ++c) {
    if (c == arm_at) {
      full.injector_for(point).arm(point, arm_at);
      event.injector_for(point).arm(point, arm_at);
    }
    if (c == disarm_at) {
      full.injector_for(point).disarm();
      event.injector_for(point).disarm();
    }
    if (c == quiet_at) {
      axi::RandomTrafficConfig off;
      off.enabled = false;
      full.gen.set_random(off);
      event.gen.set_random(off);
    }
    if (c == resume_at) {
      full.gen.set_random(rc);
      event.gen.set_random(rc);
    }
    full.s.step();
    event.s.step();
    ASSERT_EQ(full.s.cycle(), event.s.cycle());
    expect_wires_equal(full, event, c);
    ASSERT_EQ(full.tmu.any_fault(), event.tmu.any_fault())
        << "detection diverged at cycle " << c;
    ASSERT_EQ(full.tmu.recoveries(), event.tmu.recoveries())
        << "recovery diverged at cycle " << c;
    ASSERT_EQ(full.gen.completed(), event.gen.completed())
        << "traffic diverged at cycle " << c;
    if (::testing::Test::HasFailure()) return;  // stop at first divergence
  }

  // Campaign outcome: the fault was detected and recovered identically.
  EXPECT_EQ(full.tmu.fault_log().size(), event.tmu.fault_log().size());
  if (!full.tmu.fault_log().empty() && !event.tmu.fault_log().empty()) {
    EXPECT_EQ(full.tmu.fault_log().front().cycle,
              event.tmu.fault_log().front().cycle);
  }
  EXPECT_EQ(full.gen.data_mismatches(), event.gen.data_mismatches());
  EXPECT_EQ(full.gen.error_responses(), event.gen.error_responses());
  // The event-driven run must not have done MORE eval work than the
  // sweep — the whole point of the scheduler.
  EXPECT_LE(event.s.module_evals(), full.s.module_evals());
}

TEST(SchedEquiv, IpLevelLockstepFuzz) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 1234ull, 0xC0FFEEull}) {
    run_ip_lockstep(seed);
    if (::testing::Test::HasFailure()) break;
  }
}

// The Cheshire blocks the lockstep below drives and compares, by desc
// name.
struct CheshireNet {
  std::unique_ptr<soc::Soc> soc;
  axi::TrafficGenerator& cva6_0 = soc->get<axi::TrafficGenerator>("cva6_0");
  axi::TrafficGenerator& cva6_1 = soc->get<axi::TrafficGenerator>("cva6_1");
  axi::TrafficGenerator& idma = soc->get<axi::TrafficGenerator>("idma");
  fault::FaultInjector& inj_s = soc->get<fault::FaultInjector>("inj_s");
  fault::FaultInjector& periph_inj =
      soc->get<fault::FaultInjector>("periph_inj");
  tmu::Tmu& tmu = soc->get<tmu::Tmu>("tmu");
  tmu::Tmu& periph_tmu = soc->get<tmu::Tmu>("periph_tmu");
  soc::CpuRecoveryStub& cpu =
      soc->get<soc::CpuRecoveryStub>("cva6_irq_handler");

  sim::Simulator& sim() { return soc->sim(); }
};

// Full-SoC lockstep: the paper's Cheshire-style system (two CVA6
// stand-ins, iDMA, crossbar, LLC/DRAM, two TMUs, injectors, reset
// units, PLIC, CPU recovery stub) under both policies, including a
// detect/recover campaign on the Ethernet endpoint and the peripheral.
TEST(SchedEquiv, CheshireSocLockstepWithFaultCampaign) {
  tmu::TmuConfig cfg;
  cfg.adaptive.enabled = true;
  soc::SocDesc d = soc::cheshire_desc(cfg);
  d.policy = SchedPolicy::kFullSweep;
  CheshireNet full{soc::SocBuilder::build(d)};
  d.policy = SchedPolicy::kEventDriven;
  CheshireNet event{soc::SocBuilder::build(d)};

  axi::RandomTrafficConfig rc;
  rc.enabled = true;
  rc.p_new_txn = 0.25;
  rc.addr_min = soc::CheshireMap::kDramBase;
  rc.addr_max = soc::CheshireMap::kDramBase + 0xFFF8;
  for (CheshireNet* sys : {&full, &event}) {
    sys->cva6_0.set_random(rc);
    // cva6_1 exercises the peripheral so the second (Tiny-Counter) TMU's
    // campaign is hit too.
    axi::RandomTrafficConfig periph_rc = rc;
    periph_rc.p_new_txn = 0.15;
    periph_rc.addr_min = soc::CheshireMap::kPeriphBase;
    periph_rc.addr_max = soc::CheshireMap::kPeriphBase +
                         soc::CheshireMap::kPeriphSize - 8;
    sys->cva6_1.set_random(periph_rc);
    axi::RandomTrafficConfig eth_rc = rc;
    eth_rc.p_new_txn = 0.1;
    eth_rc.addr_min = soc::CheshireMap::kEthTxWindow;
    eth_rc.addr_max = soc::CheshireMap::kEthBase +
                      soc::CheshireMap::kEthSize - 8;
    sys->idma.set_random(eth_rc);
  }

  constexpr std::uint64_t kArmAt = 400;
  constexpr std::uint64_t kDisarmAt = 1400;
  constexpr std::uint64_t kTotal = 3000;
  for (std::uint64_t c = 0; c < kTotal; ++c) {
    if (c == kArmAt) {
      for (CheshireNet* sys : {&full, &event}) {
        sys->inj_s.arm(fault::FaultPoint::kBValidStuck, kArmAt);
        sys->periph_inj.arm(fault::FaultPoint::kArReadyStuck, kArmAt);
      }
    }
    if (c == kDisarmAt) {
      for (CheshireNet* sys : {&full, &event}) {
        sys->inj_s.disarm();
        sys->periph_inj.disarm();
      }
    }
    full.sim().step();
    event.sim().step();

    // Reachable wires and campaign-visible state, every cycle.
    ASSERT_EQ(full.tmu.irq.read(), event.tmu.irq.read()) << "@" << c;
    ASSERT_EQ(full.tmu.reset_req.read(), event.tmu.reset_req.read())
        << "@" << c;
    ASSERT_EQ(full.periph_tmu.irq.read(), event.periph_tmu.irq.read())
        << "@" << c;
    ASSERT_EQ(full.tmu.any_fault(), event.tmu.any_fault()) << "@" << c;
    ASSERT_EQ(full.tmu.recoveries(), event.tmu.recoveries()) << "@" << c;
    ASSERT_EQ(full.periph_tmu.recoveries(), event.periph_tmu.recoveries())
        << "@" << c;
    ASSERT_EQ(full.cva6_0.completed(), event.cva6_0.completed()) << "@" << c;
    ASSERT_EQ(full.cva6_1.completed(), event.cva6_1.completed()) << "@" << c;
    ASSERT_EQ(full.idma.completed(), event.idma.completed()) << "@" << c;
    ASSERT_EQ(full.cpu.irqs_handled(), event.cpu.irqs_handled()) << "@" << c;
  }

  // The campaign must actually have exercised detection and recovery —
  // equivalence over an idle run would prove much less.
  EXPECT_TRUE(full.tmu.any_fault());
  EXPECT_GE(full.tmu.recoveries(), 1u);
  EXPECT_TRUE(full.periph_tmu.any_fault());
  EXPECT_EQ(full.tmu.fault_log().size(), event.tmu.fault_log().size());
  EXPECT_GT(full.cva6_0.completed(), 0u);

  // And the event-driven kernel must have earned its keep on eval work.
  EXPECT_LT(event.sim().module_evals(), full.sim().module_evals());
}

// The headline property of the event-driven scheduler: a fully idle
// netlist (no traffic, nothing armed, everything drained) settles for
// free — zero module evals per cycle — while behaving identically.
TEST(SchedEquiv, IdleNetlistSettlesForFree) {
  tmu::TmuConfig cfg;
  cfg.adaptive.enabled = true;
  IpNetlist idle(SchedPolicy::kEventDriven, 3, cfg);
  idle.s.run(3);  // let any post-reset ripples die out
  const std::uint64_t e0 = idle.s.module_evals();
  idle.s.run(50);
  EXPECT_EQ(idle.s.module_evals() - e0, 0u);

  // The same netlist still reacts instantly: queue one transaction and
  // it completes just as under the full sweep.
  IpNetlist ref(SchedPolicy::kFullSweep, 3, cfg);
  ref.s.run(53);
  axi::TxnDesc d;
  d.is_write = true;
  d.addr = 0x100;
  d.len = 3;
  idle.gen.push(d);
  ref.gen.push(d);
  for (int c = 0; c < 100; ++c) {
    idle.s.step();
    ref.s.step();
    expect_wires_equal(ref, idle, ref.s.cycle());
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(idle.gen.completed(), 1u);
  EXPECT_EQ(ref.gen.completed(), 1u);
}

// ---------------------------------------------------------------------
// Tick gating. Under the event-driven policy a module whose tick()
// reports idle sleeps through clock edges and catches up when woken;
// the full sweep ticks every module every cycle and is the reference.
// The netlists below run in lockstep under both policies in run(n)
// chunks (so one catch-up spans hundreds of cycles) and single steps,
// and after every chunk every wire and every module's serialized state
// must match.
// ---------------------------------------------------------------------

// Every module's state, registration order (crossbar shards included).
void expect_modules_equal(const sim::Simulator& ref,
                          const sim::Simulator& dut, const std::string& at) {
  ASSERT_EQ(ref.cycle(), dut.cycle()) << at;
  ASSERT_EQ(ref.modules().size(), dut.modules().size());
  for (std::size_t i = 0; i < ref.modules().size(); ++i) {
    EXPECT_EQ(state_bytes::state_of(*ref.modules()[i]),
              state_bytes::state_of(*dut.modules()[i]))
        << ref.modules()[i]->name() << " diverged " << at;
  }
}

// Wire values of a set of links.
struct LinkValues {
  std::vector<axi::AxiReq> req;
  std::vector<axi::AxiRsp> rsp;
  void add(const axi::Link& l) {
    req.push_back(l.req.read());
    rsp.push_back(l.rsp.read());
  }
  bool operator==(const LinkValues&) const = default;
};

// Every link of a built netlist: "<manager>.out" ports and the
// "<block>.in" chain links (soc::Soc's naming scheme).
LinkValues link_wires(soc::Soc& soc) {
  LinkValues v;
  for (const std::string& block : soc.block_names()) {
    for (const char* suffix : {".out", ".in"}) {
      try {
        v.add(soc.link(block + suffix));
      } catch (const std::invalid_argument&) {
      }
    }
  }
  return v;
}

void expect_socs_equal(soc::Soc& ref, soc::Soc& dut, const std::string& at) {
  EXPECT_TRUE(link_wires(ref) == link_wires(dut))
      << "link wires diverged " << at;
  expect_modules_equal(ref.sim(), dut.sim(), at);
}

std::size_t asleep_count(const sim::Simulator& s) {
  std::size_t n = 0;
  for (const sim::sched::ModuleProfile& mp : s.sched_profile().modules) {
    n += mp.asleep ? 1 : 0;
  }
  return n;
}

bool is_asleep(const sim::Simulator& s, const std::string& name) {
  for (const sim::sched::ModuleProfile& mp : s.sched_profile().modules) {
    if (mp.name == name) return mp.asleep;
  }
  ADD_FAILURE() << "no module named " << name;
  return false;
}

// One desc built twice: the full-sweep reference and the tick-gated
// device under test.
struct GatedTwin {
  std::unique_ptr<soc::Soc> ref;
  std::unique_ptr<soc::Soc> dut;

  explicit GatedTwin(soc::SocDesc d) {
    d.policy = SchedPolicy::kFullSweep;
    ref = soc::SocBuilder::build(d);
    d.policy = SchedPolicy::kEventDriven;
    dut = soc::SocBuilder::build(d);
  }

  // Applies a testbench action to both netlists.
  template <typename Fn>
  void both(Fn&& fn) {
    fn(*ref);
    fn(*dut);
  }

  // n cycles as one run(n) on each side, then the full comparison.
  void run(std::uint64_t n) {
    ref->sim().run(n);
    dut->sim().run(n);
    expect_socs_equal(*ref, *dut,
                      "after run(" + std::to_string(n) + ") at cycle " +
                          std::to_string(ref->sim().cycle()));
  }
  void step() {
    ref->sim().step();
    dut->sim().step();
    expect_socs_equal(*ref, *dut,
                      "after step() at cycle " +
                          std::to_string(ref->sim().cycle()));
  }
};

soc::SocDesc idle_cheshire() {
  tmu::TmuConfig cfg;
  cfg.adaptive.enabled = true;
  return soc::cheshire_desc(cfg);
}

axi::TxnDesc txn(bool is_write, axi::Addr addr, std::uint8_t len,
                 axi::Id id = 1) {
  axi::TxnDesc d;
  d.is_write = is_write;
  d.id = id;
  d.addr = addr;
  d.len = len;
  return d;
}

// The guard that matters here runs a step-16 prescaler: after an idle
// stretch that is not a multiple of 16 it sleeps mid-period, and the
// timeout it then detects lands on the same cycle, with the same elapsed
// count and budget, only if the catch-up restored the prescaler phase.
TEST(TickGating, TinyCounterTimeoutAfterUnalignedIdleStretch) {
  GatedTwin t(idle_cheshire());
  ASSERT_EQ(t.dut->get<tmu::Tmu>("periph_tmu").config().prescaler_step, 16u);
  t.run(500);
  t.run(503);  // 1003 = 62 * 16 + 11 idle cycles
  ASSERT_TRUE(is_asleep(t.dut->sim(), "periph_tmu"));

  t.both([](soc::Soc& s) {
    s.get<fault::FaultInjector>("periph_inj")
        .arm(fault::FaultPoint::kArReadyStuck, s.sim().cycle());
    s.get<axi::TrafficGenerator>("cva6_1")
        .push(txn(false, soc::CheshireMap::kPeriphBase + 0x40, 3));
  });
  for (int i = 0; i < 12 && !::testing::Test::HasFailure(); ++i) t.run(97);

  const auto& ref_log = t.ref->get<tmu::Tmu>("periph_tmu").fault_log();
  const auto& dut_log = t.dut->get<tmu::Tmu>("periph_tmu").fault_log();
  ASSERT_FALSE(ref_log.empty());
  ASSERT_EQ(ref_log.size(), dut_log.size());
  EXPECT_EQ(ref_log.front().kind, tmu::FaultKind::kTimeout);
  EXPECT_EQ(ref_log.front().cycle, dut_log.front().cycle);
  EXPECT_EQ(ref_log.front().elapsed, dut_log.front().elapsed);
  EXPECT_EQ(ref_log.front().budget, dut_log.front().budget);
}

// An injector sleeps while disarmed; armed after a long idle stretch it
// must trigger from a caught-up cycle counter, and the detection,
// sever, reset and recovery that follow must match cycle for cycle.
TEST(TickGating, InjectorArmedAfterLongIdleStretch) {
  GatedTwin t(idle_cheshire());
  t.run(700);
  t.run(1311);
  ASSERT_TRUE(is_asleep(t.dut->sim(), "inj_s"));

  t.both([](soc::Soc& s) {
    // Triggers a few cycles into the burst: the comparison against the
    // sleeper's own cycle counter must see the caught-up count.
    s.get<fault::FaultInjector>("inj_s").arm(
        fault::FaultPoint::kBValidStuck, s.sim().cycle() + 5);
    s.get<axi::TrafficGenerator>("cva6_0")
        .push(txn(true, soc::CheshireMap::kEthTxWindow, 15));
    s.get<axi::TrafficGenerator>("cva6_0")
        .push(txn(true, soc::CheshireMap::kEthTxWindow + 0x80, 3, 2));
  });
  for (int i = 0; i < 25 && !::testing::Test::HasFailure(); ++i) t.run(131);

  const tmu::Tmu& ref_tmu = t.ref->get<tmu::Tmu>("tmu");
  ASSERT_TRUE(ref_tmu.any_fault());
  EXPECT_GE(ref_tmu.recoveries(), 1u);
  EXPECT_EQ(t.ref->get<soc::CpuRecoveryStub>("cva6_irq_handler").irqs_handled(),
            t.dut->get<soc::CpuRecoveryStub>("cva6_irq_handler").irqs_handled());
}

// The IP-level fault testbench plus an idle sibling memory in the same
// reset domain, with the reset unit registered before or after both
// memories. The guarded memory wakes on the sever (its request wire
// drops); the sibling is still asleep when the reset unit's tick calls
// its hw_reset(). Woken later in registration order it ticks at that
// same edge; woken earlier it ticks from the next edge, credited with
// the idle tick it missed. Both must match the full sweep.
struct GatedIpNet {
  axi::Link l_gen, l_tmu_mst, l_tmu_sub, l_mem, l_idle;
  axi::TrafficGenerator gen{"gen", l_gen, 5};
  fault::FaultInjector inj_m{"inj_m", l_gen, l_tmu_mst};
  tmu::Tmu tmu;
  fault::FaultInjector inj_s{"inj_s", l_tmu_sub, l_mem};
  axi::MemorySubordinate mem{"mem", l_mem};
  axi::MemorySubordinate sibling{"sibling", l_idle};
  soc::ResetUnit rst;
  sim::Simulator s;

  GatedIpNet(SchedPolicy policy, bool reset_unit_first,
             const tmu::TmuConfig& cfg)
      : tmu("tmu", l_tmu_mst, l_tmu_sub, cfg),
        rst("rst", tmu.reset_req, tmu.reset_ack,
            [this] {
              mem.hw_reset();
              sibling.hw_reset();
            }),
        s(policy) {
    s.add(gen);
    s.add(inj_m);
    s.add(tmu);
    if (reset_unit_first) s.add(rst);
    s.add(inj_s);
    s.add(mem);
    s.add(sibling);
    if (!reset_unit_first) s.add(rst);
    s.reset();
  }

  LinkValues wires() const {
    LinkValues v;  // the TMU's own wires travel in its visit_state
    for (const axi::Link* l :
         {&l_gen, &l_tmu_mst, &l_tmu_sub, &l_mem, &l_idle}) {
      v.add(*l);
    }
    return v;
  }
};

void expect_ip_equal(GatedIpNet& ref, GatedIpNet& dut, const std::string& at) {
  EXPECT_TRUE(ref.wires() == dut.wires()) << "wires diverged " << at;
  expect_modules_equal(ref.s, dut.s, at);
}

TEST(TickGating, DetectionResetsASleepingSubordinateInEitherOrder) {
  for (const bool reset_unit_first : {false, true}) {
    SCOPED_TRACE(reset_unit_first ? "reset unit before memory"
                                  : "reset unit after memory");
    tmu::TmuConfig cfg;
    cfg.variant = tmu::Variant::kTinyCounter;
    cfg.tc_total_budget = 120;
    cfg.prescaler_step = 4;
    GatedIpNet ref(SchedPolicy::kFullSweep, reset_unit_first, cfg);
    GatedIpNet dut(SchedPolicy::kEventDriven, reset_unit_first, cfg);
    ref.s.run(613);
    dut.s.run(613);
    expect_ip_equal(ref, dut, "after the idle stretch");
    ASSERT_TRUE(is_asleep(dut.s, "mem"));

    for (GatedIpNet* n : {&ref, &dut}) {
      n->inj_s.arm(fault::FaultPoint::kArReadyStuck, n->s.cycle());
      n->gen.push(txn(false, 0x200, 3));
    }
    bool slept_into_reset = false;
    for (int c = 0; c < 400 && ref.rst.resets_performed() == 0; ++c) {
      slept_into_reset = is_asleep(dut.s, "sibling");
      ref.s.step();
      dut.s.step();
      expect_ip_equal(ref, dut, "at cycle " + std::to_string(ref.s.cycle()));
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_EQ(ref.rst.resets_performed(), 1u);
    EXPECT_EQ(dut.rst.resets_performed(), 1u);
    EXPECT_TRUE(slept_into_reset);

    // Recovery, the re-presented read completing once the fault is
    // gone, a fresh write, and back to idle.
    for (GatedIpNet* n : {&ref, &dut}) n->inj_s.disarm();
    for (int c = 0; c < 20 && !::testing::Test::HasFailure(); ++c) {
      ref.s.step();
      dut.s.step();
      expect_ip_equal(ref, dut, "at cycle " + std::to_string(ref.s.cycle()));
    }
    for (GatedIpNet* n : {&ref, &dut}) n->gen.push(txn(true, 0x300, 1));
    for (int i = 0; i < 4 && !::testing::Test::HasFailure(); ++i) {
      ref.s.run(157);
      dut.s.run(157);
      expect_ip_equal(ref, dut, "at cycle " + std::to_string(ref.s.cycle()));
    }
    EXPECT_GE(ref.tmu.recoveries(), 1u);
    EXPECT_EQ(ref.gen.completed(), 2u);
    if (::testing::Test::HasFailure()) return;
  }
}

// The Cheshire SoC's own reset path: the peripheral memory sleeps while
// its guard times out on the stuck AR (which never reaches it), wakes
// when the sever drops its request readies, and is reset by the guard's
// reset unit; the PLIC and the CPU stub then service the interrupt.
TEST(TickGating, CheshirePeripheralTimeoutAndReset) {
  GatedTwin t(idle_cheshire());
  t.run(320);  // a multiple of the prescaler step this time
  t.both([](soc::Soc& s) {
    s.get<fault::FaultInjector>("periph_inj")
        .arm(fault::FaultPoint::kArReadyStuck, s.sim().cycle());
    s.get<axi::TrafficGenerator>("cva6_1")
        .push(txn(false, soc::CheshireMap::kPeriphBase + 0x80, 1));
  });
  t.run(200);
  ASSERT_TRUE(is_asleep(t.dut->sim(), "periph"));
  const auto& ref_ru = t.ref->get<soc::ResetUnit>("periph_reset_unit");
  for (int c = 0; c < 800 && ref_ru.resets_performed() == 0; ++c) {
    t.step();
    if (::testing::Test::HasFailure()) return;
  }
  ASSERT_EQ(ref_ru.resets_performed(), 1u);
  for (int i = 0; i < 6 && !::testing::Test::HasFailure(); ++i) t.run(83);
  EXPECT_EQ(
      t.dut->get<soc::ResetUnit>("periph_reset_unit").resets_performed(), 1u);
  EXPECT_GE(
      t.ref->get<soc::CpuRecoveryStub>("cva6_irq_handler").irqs_handled(), 1u);
}

// Between chunks: ambient testbench wire writes and invalidate_settle(),
// around traffic bursts and idle stretches.
TEST(TickGating, InvalidationsBetweenChunks) {
  GatedTwin t(idle_cheshire());
  sim::Rng rng(18);
  for (int chunk = 0; chunk < 30 && !::testing::Test::HasFailure(); ++chunk) {
    switch (chunk % 3) {
      case 0:  // a traffic burst into DRAM, the Ethernet IP and the periph
        t.both([&](soc::Soc& s) {
          auto& g0 = s.get<axi::TrafficGenerator>("cva6_0");
          auto& g1 = s.get<axi::TrafficGenerator>("cva6_1");
          g0.push(txn(true, soc::CheshireMap::kDramBase + 0x100 * chunk, 3));
          g0.push(txn(false, soc::CheshireMap::kDramBase + 0x100 * chunk, 3));
          g1.push(txn(true, soc::CheshireMap::kPeriphBase + 0x40 * chunk, 1));
          s.get<axi::TrafficGenerator>("idma")
              .push(txn(true, soc::CheshireMap::kEthTxWindow, 2, 3));
        });
        break;
      case 1:  // ambient write: every simulator on the thread invalidates
        t.both([](soc::Soc& s) {
          axi::AxiRsp r{};
          r.ar_ready = true;
          s.link("periph.in").rsp.write(r);
        });
        break;
      case 2:
        t.both([](soc::Soc& s) { s.sim().invalidate_settle(); });
        break;
    }
    if (chunk % 2 == 0) {
      t.step();
      t.step();
    }
    t.run(rng.range(1, 400));
  }
  EXPECT_GT(t.ref->get<axi::TrafficGenerator>("cva6_0").completed(), 0u);
}

// A snapshot captured while most of the netlist sleeps restores awake:
// the fork and the original then run the same burst identically — state,
// wires and every eval counter.
TEST(TickGating, SnapshotCapturedMidSleepForksExactly) {
  GatedTwin t(idle_cheshire());
  t.run(900);
  ASSERT_GE(asleep_count(t.dut->sim()), 17u);
  const snapshot::Snapshot snap = snapshot::capture(*t.dut);
  std::unique_ptr<soc::Soc> fork = snapshot::fork(snap, t.dut->desc());
  EXPECT_EQ(asleep_count(fork->sim()), 0u);

  for (soc::Soc* s : {t.ref.get(), t.dut.get(), fork.get()}) {
    auto& g0 = s->get<axi::TrafficGenerator>("cva6_0");
    g0.push(txn(true, soc::CheshireMap::kDramBase + 0x2000, 7));
    g0.push(txn(false, soc::CheshireMap::kDramBase + 0x2000, 7));
    s->get<axi::TrafficGenerator>("cva6_1")
        .push(txn(false, soc::CheshireMap::kPeriphBase, 0));
  }
  for (const std::uint64_t n : {1ull, 2ull, 37ull, 300ull, 600ull}) {
    t.run(n);
    fork->sim().run(n);
    const std::string at = "fork at cycle " + std::to_string(fork->sim().cycle());
    expect_socs_equal(*t.dut, *fork, at);
    EXPECT_EQ(t.dut->sim().module_evals(), fork->sim().module_evals()) << at;
    EXPECT_EQ(t.dut->sim().sched_stats().wakeups,
              fork->sim().sched_stats().wakeups) << at;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(fork->get<axi::TrafficGenerator>("cva6_0").completed(), 2u);
  EXPECT_EQ(snapshot::capture(*t.dut).payload, snapshot::capture(*fork).payload);
}

// Without this pin a change that quietly stopped modules sleeping would
// keep every correctness gate green.
TEST(TickGating, IdleCheshireSleepsAndPushWakes) {
  soc::SocDesc d = idle_cheshire();
  d.policy = SchedPolicy::kEventDriven;
  const std::unique_ptr<soc::Soc> soc = soc::SocBuilder::build(d);
  soc->sim().run(100);
  EXPECT_EQ(soc->sim().modules().size(), 25u);
  EXPECT_GE(asleep_count(soc->sim()), 17u);

  ASSERT_TRUE(is_asleep(soc->sim(), "cva6_0"));
  soc->get<axi::TrafficGenerator>("cva6_0")
      .push(txn(true, soc::CheshireMap::kDramBase, 0));
  EXPECT_FALSE(is_asleep(soc->sim(), "cva6_0"));
  soc->sim().run(200);
  EXPECT_EQ(soc->get<axi::TrafficGenerator>("cva6_0").completed(), 1u);
  EXPECT_TRUE(is_asleep(soc->sim(), "cva6_0"));

  d.policy = SchedPolicy::kFullSweep;
  const std::unique_ptr<soc::Soc> full = soc::SocBuilder::build(d);
  full->sim().run(100);
  EXPECT_EQ(asleep_count(full->sim()), 0u);
}

// The quiescence jump needs every module that ticks to sleep: on an idle
// Cheshire only the crossbar shards, which never tick, stay out of sleep,
// and a run of a trillion cycles then returns at once.
TEST(TickGating, IdleCheshireJumpsToTheEndOfARun) {
  soc::SocDesc d = idle_cheshire();
  d.policy = SchedPolicy::kEventDriven;
  const std::unique_ptr<soc::Soc> soc = soc::SocBuilder::build(d);
  soc->sim().run(100);
  for (const sim::sched::ModuleProfile& mp :
       soc->sim().sched_profile().modules) {
    const bool shard = mp.name.rfind("xbar.", 0) == 0;
    EXPECT_EQ(mp.asleep, !shard) << mp.name;
  }
  ASSERT_EQ(asleep_count(soc->sim()), 18u);
  ASSERT_FALSE(::testing::Test::HasFailure());

  const std::uint64_t evals = soc->sim().module_evals();
  soc->sim().run(1'000'000'000'000);
  EXPECT_EQ(soc->sim().cycle(), 100 + 1'000'000'000'000);
  EXPECT_EQ(soc->sim().module_evals(), evals);
  EXPECT_EQ(asleep_count(soc->sim()), 18u);
}

// The tick-side analogue of SimSettleEventDriven.UndeclaredInputDiverges-
// FromFullSweep: a sleeping module is woken only by the tick inputs it
// declares. The counter below reports idle after every tick; the copy
// that omits its input from visit_inputs sleeps through every change the
// pulser makes and diverges from the full sweep on the first one.
class Pulser : public sim::Module {
 public:
  Pulser(std::string name, sim::Wire<int>& out)
      : sim::Module(std::move(name)), out_(out) {}
  void eval() override { out_.write(level_); }
  void tick() override {
    if (++phase_ == 7) {
      phase_ = 0;
      level_ ^= 1;
    }
  }
  void reset() override { phase_ = level_ = 0; }

 private:
  sim::Wire<int>& out_;
  int phase_ = 0;
  int level_ = 0;
};

class EdgeCounter : public sim::Module {
 public:
  EdgeCounter(std::string name, sim::Wire<int>& in, bool declare)
      : sim::Module(std::move(name)), in_(in), declare_(declare) {}
  bool is_combinational() const override { return false; }
  void tick() override {
    if (in_.read() != last_) {
      last_ = in_.read();
      ++edges;
    }
    ++cycles;
    set_tick_idle(true);  // with the same input, the next tick only counts
  }
  void reset() override { last_ = edges = 0, cycles = 0; }
  void visit_inputs(sim::InputVisitor& in) override {
    if (declare_) in.tick_input(in_);
  }
  void skip_ticks(std::uint64_t n) override { cycles += n; }

  int edges = 0;
  std::uint64_t cycles = 0;

 private:
  sim::Wire<int>& in_;
  bool declare_;
  int last_ = 0;
};

TEST(TickGating, UndeclaredTickInputDivergesFromFullSweep) {
  struct Net {
    sim::Wire<int> w;
    Pulser pulser{"pulser", w};
    EdgeCounter counter;
    sim::Simulator s;
    Net(SchedPolicy p, bool declare) : counter("counter", w, declare), s(p) {
      s.add(pulser);
      s.add(counter);
      s.reset();
    }
  };
  Net oracle(SchedPolicy::kFullSweep, /*declare=*/false);
  Net declared(SchedPolicy::kEventDriven, /*declare=*/true);
  Net omitted(SchedPolicy::kEventDriven, /*declare=*/false);

  int first_divergence = -1;
  for (int cycle = 1; cycle <= 30; ++cycle) {
    for (Net* n : {&oracle, &declared, &omitted}) n->s.step();
    EXPECT_EQ(declared.counter.edges, oracle.counter.edges) << cycle;
    // Catch-up keeps the free-running count exact either way.
    EXPECT_EQ(omitted.counter.cycles, oracle.counter.cycles) << cycle;
    if (first_divergence < 0 &&
        omitted.counter.edges != oracle.counter.edges) {
      first_divergence = cycle;
    }
  }
  EXPECT_EQ(first_divergence, 8);  // the pulser's first toggle is sampled
  EXPECT_EQ(omitted.counter.edges, 0);
  EXPECT_EQ(oracle.counter.edges, 4);
  EXPECT_TRUE(is_asleep(omitted.s, "counter"));

  // A testbench write lands on the ambient context, which invalidates
  // everything, so even an undeclared reader wakes for it.
  sim::Wire<int> tb;
  EdgeCounter counter("tb_counter", tb, /*declare=*/false);
  sim::Simulator s;
  s.add(counter);
  s.reset();
  s.run(10);
  ASSERT_TRUE(is_asleep(s, "tb_counter"));
  tb.write(5);
  s.run(10);
  EXPECT_EQ(counter.edges, 1);
  EXPECT_EQ(counter.cycles, 20u);
}

}  // namespace
