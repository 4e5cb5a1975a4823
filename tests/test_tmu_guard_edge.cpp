// Edge-case coverage of the guard FSMs: burst types, interleaved IDs,
// slow-ready managers, configuration corner cases, statistics.

#include <gtest/gtest.h>

#include "axi/link.hpp"
#include "axi/memory.hpp"
#include "axi/traffic_gen.hpp"
#include "fault/injector.hpp"
#include "sim/kernel.hpp"
#include "soc/reset_unit.hpp"
#include "tmu/regs.hpp"
#include "tmu/tmu.hpp"

namespace {

using namespace axi;
using fault::FaultPoint;
using tmu::Variant;

struct EdgeBench {
  Link l_gen, l_tmu_sub, l_mem;
  TrafficGenerator gen{"gen", l_gen};
  tmu::Tmu tmu;
  fault::FaultInjector inj{"inj", l_tmu_sub, l_mem};
  MemorySubordinate mem{"mem", l_mem};
  soc::ResetUnit rst;
  sim::Simulator s;

  explicit EdgeBench(const tmu::TmuConfig& cfg)
      : tmu("tmu", l_gen, l_tmu_sub, cfg),
        rst("rst", tmu.reset_req, tmu.reset_ack, [this] { mem.hw_reset(); }) {
    s.add(gen);
    s.add(tmu);
    s.add(inj);
    s.add(mem);
    s.add(rst);
    s.reset();
  }
};

tmu::TmuConfig adaptive_cfg(Variant v = Variant::kFullCounter) {
  tmu::TmuConfig cfg;
  cfg.variant = v;
  cfg.adaptive.enabled = true;
  return cfg;
}

TEST(GuardEdge, WrapBurstMonitoredCleanly) {
  EdgeBench b(adaptive_cfg());
  b.gen.push(TxnDesc{true, 0, 0x1010, 3, 3, Burst::kWrap});
  b.gen.push(TxnDesc{false, 0, 0x1010, 3, 3, Burst::kWrap});
  ASSERT_TRUE(b.s.run_until([&] { return b.gen.completed() >= 2; }, 500));
  EXPECT_FALSE(b.tmu.any_fault());
  EXPECT_EQ(b.gen.data_mismatches(), 0u);
}

TEST(GuardEdge, FixedBurstMonitoredCleanly) {
  EdgeBench b(adaptive_cfg());
  b.gen.push(TxnDesc{true, 1, 0x2000, 7, 3, Burst::kFixed});
  ASSERT_TRUE(b.s.run_until([&] { return b.gen.completed() >= 1; }, 500));
  EXPECT_FALSE(b.tmu.any_fault());
  EXPECT_EQ(b.tmu.write_guard().stats().beats, 8u);
}

TEST(GuardEdge, InterleavedIdsCompleteInOrderPerId) {
  EdgeBench b(adaptive_cfg());
  for (int i = 0; i < 12; ++i) {
    b.gen.push(TxnDesc{true, static_cast<Id>(i % 3),
                       static_cast<Addr>(i * 0x40), 3, 3, Burst::kIncr});
  }
  ASSERT_TRUE(b.s.run_until([&] { return b.gen.completed() >= 12; }, 3000));
  EXPECT_FALSE(b.tmu.any_fault());
  EXPECT_EQ(b.tmu.write_guard().stats().completed, 12u);
  EXPECT_EQ(b.tmu.write_guard().stats().enqueued, 12u);
}

TEST(GuardEdge, SlowManagerReadySidesTolerated) {
  EdgeBench b(adaptive_cfg());
  b.gen.set_b_ready_delay(4);
  b.gen.set_r_ready_delay(4);
  b.gen.push(TxnDesc{true, 0, 0x100, 3, 3, Burst::kIncr});
  b.gen.push(TxnDesc{false, 0, 0x100, 3, 3, Burst::kIncr});
  ASSERT_TRUE(b.s.run_until([&] { return b.gen.completed() >= 2; }, 1000));
  EXPECT_FALSE(b.tmu.any_fault());
}

TEST(GuardEdge, SlowManagerBeyondBudgetIsCaught) {
  tmu::TmuConfig cfg;
  cfg.budgets.b_vld_b_rdy = 6;
  cfg.adaptive.enabled = false;
  EdgeBench b(cfg);
  b.gen.set_b_ready_delay(50);  // manager dawdles past the budget
  b.gen.push(TxnDesc{true, 0, 0x100, 0, 3, Burst::kIncr});
  ASSERT_TRUE(b.s.run_until([&] { return b.tmu.any_fault(); }, 500));
  EXPECT_EQ(static_cast<tmu::WritePhase>(b.tmu.fault_log().front().phase),
            tmu::WritePhase::kBVldBRdy);
}

TEST(GuardEdge, WGapWithinBudgetTolerated) {
  EdgeBench b(adaptive_cfg());
  b.gen.set_w_gap(3);
  b.gen.push(TxnDesc{true, 0, 0x100, 7, 3, Burst::kIncr});
  ASSERT_TRUE(b.s.run_until([&] { return b.gen.completed() >= 1; }, 1000));
  EXPECT_FALSE(b.tmu.any_fault());
}

TEST(GuardEdge, IrqDisabledStillLogsAndResets) {
  tmu::TmuConfig cfg = adaptive_cfg();
  cfg.irq_enabled = false;
  EdgeBench b(cfg);
  b.inj.arm(FaultPoint::kBValidStuck);
  b.gen.push(TxnDesc{true, 0, 0x100, 0, 3, Burst::kIncr});
  ASSERT_TRUE(b.s.run_until([&] { return b.tmu.any_fault(); }, 1000));
  b.s.run(2);
  EXPECT_FALSE(b.tmu.irq.read());          // masked
  EXPECT_EQ(b.tmu.resets_requested(), 1u);  // recovery still runs
}

TEST(GuardEdge, ResetOnFaultDisabledSignalsIrqOnly) {
  tmu::TmuConfig cfg = adaptive_cfg();
  cfg.reset_on_fault = false;
  EdgeBench b(cfg);
  b.inj.arm(FaultPoint::kBValidStuck);
  b.gen.push(TxnDesc{true, 0, 0x100, 0, 3, Burst::kIncr});
  ASSERT_TRUE(b.s.run_until([&] { return b.tmu.any_fault(); }, 1000));
  b.s.run(20);
  EXPECT_TRUE(b.tmu.irq.read());
  EXPECT_EQ(b.rst.resets_performed(), 0u);
  EXPECT_EQ(b.tmu.resets_requested(), 0u);
}

TEST(GuardEdge, TcAdaptiveBudgetScalesWithBurst) {
  tmu::TmuConfig cfg;
  cfg.variant = Variant::kTinyCounter;
  cfg.tc_total_budget = 50;
  cfg.adaptive.enabled = true;
  cfg.adaptive.cycles_per_beat = 2;
  EdgeBench b(cfg);
  b.inj.arm(FaultPoint::kAwReadyStuck);
  b.gen.push(TxnDesc{true, 0, 0x100, 99, 3, Burst::kIncr});  // 100 beats
  ASSERT_TRUE(b.s.run_until([&] { return b.tmu.any_fault(); }, 1000));
  // Budget = 50 + 2*99 = 248.
  EXPECT_EQ(b.tmu.fault_log().front().budget, 50u + 2 * 99);
}

TEST(GuardEdge, ReadGuardStatsAndPerfLog) {
  EdgeBench b(adaptive_cfg());
  for (int i = 0; i < 5; ++i) {
    b.gen.push(TxnDesc{false, 0, static_cast<Addr>(i * 0x40), 7, 3,
                       Burst::kIncr});
  }
  ASSERT_TRUE(b.s.run_until([&] { return b.gen.completed() >= 5; }, 2000));
  const auto& st = b.tmu.read_guard().stats();
  EXPECT_EQ(st.completed, 5u);
  EXPECT_EQ(st.beats, 40u);
  EXPECT_EQ(b.tmu.read_guard().perf_log().size(), 5u);
  EXPECT_GT(st.total_latency.mean(), 0.0);
}

TEST(GuardEdge, LatencyStatRegistersExposed) {
  EdgeBench b(adaptive_cfg());
  b.gen.push(TxnDesc{true, 0, 0x100, 3, 3, Burst::kIncr});
  b.gen.push(TxnDesc{false, 0, 0x100, 3, 3, Burst::kIncr});
  ASSERT_TRUE(b.s.run_until([&] { return b.gen.completed() >= 2; }, 500));
  using namespace tmu::regs;
  EXPECT_GT(b.tmu.read_reg(kWrLatAvg), 0u);
  EXPECT_GT(b.tmu.read_reg(kRdLatAvg), 0u);
  EXPECT_LE(b.tmu.read_reg(kWrLatMin), b.tmu.read_reg(kWrLatMax));
  EXPECT_EQ(b.tmu.read_reg(kWrBeats), 4u);
  EXPECT_EQ(b.tmu.read_reg(kRdBeats), 4u);
}

TEST(GuardEdge, FaultPackRoundTrip) {
  const auto packed = tmu::regs::pack_fault(
      /*kind=*/2, /*phase=*/4, /*is_write=*/true, /*phase_valid=*/true,
      /*id=*/0x155, /*elapsed=*/300);
  EXPECT_EQ(packed & 0xF, 2u);
  EXPECT_EQ((packed >> 4) & 0xF, 4u);
  EXPECT_EQ((packed >> 8) & 1u, 1u);
  EXPECT_EQ((packed >> 9) & 1u, 1u);
  EXPECT_EQ((packed >> 10) & 0x3FF, 0x155u);
  EXPECT_EQ(packed >> 20, 300u);
}

TEST(GuardEdge, FaultPackSaturatesElapsed) {
  const auto packed =
      tmu::regs::pack_fault(0, 0, false, false, 0, 1'000'000);
  EXPECT_EQ(packed >> 20, 0xFFFu);
}

TEST(GuardEdge, SequentialFaultsBothLogged) {
  EdgeBench b(adaptive_cfg());
  // Fault 1 + recovery.
  b.inj.arm(FaultPoint::kBValidStuck);
  b.gen.push(TxnDesc{true, 0, 0x100, 0, 3, Burst::kIncr});
  ASSERT_TRUE(b.s.run_until([&] { return b.tmu.recoveries() >= 1; }, 1000));
  b.inj.disarm();
  b.tmu.clear_irq();
  b.s.run(10);
  // Fault 2 (different kind) + recovery.
  b.inj.arm(FaultPoint::kSpuriousB);
  ASSERT_TRUE(b.s.run_until([&] { return b.tmu.recoveries() >= 2; }, 1000));
  ASSERT_GE(b.tmu.fault_log().size(), 2u);
  EXPECT_EQ(b.tmu.fault_log()[0].kind, tmu::FaultKind::kTimeout);
  EXPECT_EQ(b.tmu.fault_log()[1].kind, tmu::FaultKind::kUnrequested);
}

TEST(GuardEdge, SingleBeatBurstPhases) {
  EdgeBench b(adaptive_cfg());
  b.gen.push(TxnDesc{true, 0, 0x100, 0, 3, Burst::kIncr});
  ASSERT_TRUE(b.s.run_until([&] { return b.gen.completed() >= 1; }, 300));
  const auto& log = b.tmu.write_guard().perf_log();
  ASSERT_EQ(log.size(), 1u);
  // A 1-beat burst never dwells in WFIRST_WLAST.
  EXPECT_EQ(log[0].phase_cycles[static_cast<unsigned>(
                tmu::WritePhase::kWFirstWLast)],
            0u);
}

TEST(GuardEdge, MaxLengthBurstMonitored) {
  tmu::TmuConfig cfg = adaptive_cfg();
  cfg.adaptive.cycles_per_beat = 2;
  EdgeBench b(cfg);
  b.gen.push(TxnDesc{true, 0, 0x2000, 255, 3, Burst::kIncr});
  ASSERT_TRUE(b.s.run_until([&] { return b.gen.completed() >= 1; }, 2000));
  EXPECT_FALSE(b.tmu.any_fault());
  EXPECT_EQ(b.tmu.write_guard().stats().beats, 256u);
}

// Detection exactness sweep: for every write phase and several budgets,
// the flagged elapsed equals the configured budget (step 1, no adaptive).
struct PhaseBudgetCase {
  FaultPoint point;
  tmu::WritePhase phase;
  std::uint32_t budget;
};

class PhaseBudgetSweep : public ::testing::TestWithParam<PhaseBudgetCase> {};

TEST_P(PhaseBudgetSweep, ElapsedEqualsBudget) {
  const auto c = GetParam();
  tmu::TmuConfig cfg;
  cfg.adaptive.enabled = false;
  switch (c.phase) {
    case tmu::WritePhase::kAwVldAwRdy: cfg.budgets.aw_vld_aw_rdy = c.budget; break;
    case tmu::WritePhase::kAwRdyWVld: cfg.budgets.aw_rdy_w_vld = c.budget; break;
    case tmu::WritePhase::kWVldWRdy: cfg.budgets.w_vld_w_rdy = c.budget; break;
    case tmu::WritePhase::kWLastBVld: cfg.budgets.w_last_b_vld = c.budget; break;
    default: break;
  }
  EdgeBench b(cfg);
  auto& inj = fault::is_manager_side(c.point) ? b.inj : b.inj;
  // Manager-side faults need the upstream injector; this sweep only
  // uses subordinate-side points plus kWValidStuck handled below.
  if (fault::is_manager_side(c.point)) {
    // Re-wire: use an upstream injector bench instead.
    Link l_gen, l_tmu_mst, l_tmu_sub, l_mem;
    TrafficGenerator gen("gen", l_gen);
    fault::FaultInjector inj_m("inj_m", l_gen, l_tmu_mst);
    tmu::Tmu monitor("tmu", l_tmu_mst, l_tmu_sub, cfg);
    MemorySubordinate mem("mem", l_tmu_sub);
    sim::Simulator s;
    s.add(gen);
    s.add(inj_m);
    s.add(monitor);
    s.add(mem);
    s.reset();
    inj_m.arm(c.point);
    gen.push(TxnDesc{true, 0, 0x100, 3, 3, Burst::kIncr});
    ASSERT_TRUE(s.run_until([&] { return monitor.any_fault(); },
                            c.budget + 200));
    EXPECT_EQ(monitor.fault_log().front().elapsed, c.budget);
    return;
  }
  inj.arm(c.point);
  b.gen.push(TxnDesc{true, 0, 0x100, 3, 3, Burst::kIncr});
  ASSERT_TRUE(b.s.run_until([&] { return b.tmu.any_fault(); },
                            c.budget + 200));
  const auto& f = b.tmu.fault_log().front();
  EXPECT_EQ(static_cast<tmu::WritePhase>(f.phase), c.phase);
  EXPECT_EQ(f.elapsed, c.budget);
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, PhaseBudgetSweep,
    ::testing::Values(
        PhaseBudgetCase{FaultPoint::kAwReadyStuck,
                        tmu::WritePhase::kAwVldAwRdy, 5},
        PhaseBudgetCase{FaultPoint::kAwReadyStuck,
                        tmu::WritePhase::kAwVldAwRdy, 77},
        PhaseBudgetCase{FaultPoint::kWValidStuck,
                        tmu::WritePhase::kAwRdyWVld, 33},
        PhaseBudgetCase{FaultPoint::kWReadyStuck,
                        tmu::WritePhase::kWVldWRdy, 12},
        PhaseBudgetCase{FaultPoint::kBValidStuck,
                        tmu::WritePhase::kWLastBVld, 64}));

}  // namespace

namespace {

using namespace axi;

TEST(LogBounds, FaultLogFifoDropsAndCounts) {
  tmu::TmuConfig cfg;
  cfg.fault_log_depth = 2;
  cfg.adaptive.enabled = true;
  EdgeBench b(cfg);
  for (int round = 0; round < 4; ++round) {
    b.inj.arm(fault::FaultPoint::kSpuriousB);
    ASSERT_TRUE(b.s.run_until(
        [&] {
          return b.tmu.recoveries() >= static_cast<std::uint64_t>(round + 1);
        },
        2000))
        << "round " << round;
    b.inj.disarm();
    b.tmu.clear_irq();
    b.s.run(5);
  }
  EXPECT_EQ(b.tmu.fault_log().size(), 2u);     // FIFO bound
  EXPECT_EQ(b.tmu.fault_log_dropped(), 2u);    // the rest counted
  using namespace tmu::regs;
  EXPECT_EQ(b.tmu.read_reg(kLogDropped) & 0xFFFF, 2u);
}

TEST(LogBounds, PerfLogFifoDropsAndCounts) {
  tmu::TmuConfig cfg = adaptive_cfg();
  cfg.perf_log_depth = 3;
  EdgeBench b(cfg);
  for (int i = 0; i < 8; ++i) {
    b.gen.push(TxnDesc{true, 0, static_cast<Addr>(i * 0x40), 0, 3,
                       Burst::kIncr});
  }
  ASSERT_TRUE(b.s.run_until([&] { return b.gen.completed() >= 8; }, 1000));
  EXPECT_EQ(b.tmu.write_guard().perf_log().size(), 3u);
  EXPECT_EQ(b.tmu.write_guard().perf_log_dropped(), 5u);
  using namespace tmu::regs;
  EXPECT_EQ(b.tmu.read_reg(kLogDropped) >> 16, 5u);
}

// Address-handshake and unrequested-response checks of one guard, driven
// directly with one settled (AxiReq, AxiRsp) pair per cycle, in both
// directions. The subordinate never raises AWREADY/ARREADY.
template <typename G>
class GuardHandshake : public ::testing::Test {
 protected:
  void present(bool valid, Addr addr) {
    const AxFlit ax{1, addr, 0, 3, Burst::kIncr};
    if constexpr (G::kIsWrite) {
      q_.aw_valid = valid;
      q_.aw = ax;
    } else {
      q_.ar_valid = valid;
      q_.ar = ax;
    }
  }

  void respond(bool valid, Id id) {
    if constexpr (G::kIsWrite) {
      s_.b_valid = valid;
      s_.b.id = id;
    } else {
      s_.r_valid = valid;
      s_.r.id = id;
      s_.r.last = true;
    }
  }

  void run(int cycles) {
    for (int i = 0; i < cycles; ++i) {
      const AxFlit& ax = G::kIsWrite ? q_.aw : q_.ar;
      const bool valid = G::kIsWrite ? q_.aw_valid : q_.ar_valid;
      guard_.observe(q_, s_, valid && guard_.can_admit(ax.id), cycle_++);
    }
  }

  std::size_t count(tmu::FaultKind kind) {
    std::size_t n = 0;
    for (const tmu::FaultRecord& f : guard_.faults()) {
      n += f.kind == kind;
    }
    return n;
  }

  tmu::TmuConfig cfg_ = adaptive_cfg();
  G guard_{cfg_};
  AxiReq q_{};
  AxiRsp s_{};
  std::uint64_t cycle_ = 0;
};

struct DirName {
  template <typename G>
  static std::string GetName(int) {
    return G::kIsWrite ? "Write" : "Read";
  }
};
using BothGuards = ::testing::Types<tmu::WriteGuard, tmu::ReadGuard>;
TYPED_TEST_SUITE(GuardHandshake, BothGuards, DirName);

TYPED_TEST(GuardHandshake, PayloadChangeWhileValidFlagsOnce) {
  this->present(true, 0x100);
  this->run(3);
  this->present(true, 0x140);
  this->run(3);
  ASSERT_EQ(this->guard_.faults().size(), 1u);
  const tmu::FaultRecord& f = this->guard_.faults().front();
  EXPECT_EQ(f.kind, tmu::FaultKind::kHandshake);
  EXPECT_EQ(f.phase, 0u);
  EXPECT_EQ(f.is_write, TypeParam::kIsWrite);
  EXPECT_EQ(f.addr, 0x100u);
}

TYPED_TEST(GuardHandshake, ValidDroppedBeforeReadyFlagsAndReleases) {
  this->present(true, 0x100);
  this->run(3);
  EXPECT_EQ(this->guard_.ott().occupancy(), 1u);
  this->present(false, 0x100);
  this->run(1);
  ASSERT_EQ(this->guard_.faults().size(), 1u);
  const tmu::FaultRecord& f = this->guard_.faults().front();
  EXPECT_EQ(f.kind, tmu::FaultKind::kHandshake);
  EXPECT_EQ(f.phase, 0u);
  EXPECT_EQ(f.is_write, TypeParam::kIsWrite);
  EXPECT_EQ(this->guard_.ott().occupancy(), 0u);
  EXPECT_EQ(this->guard_.remapper().active_ids(), 0u);
}

TYPED_TEST(GuardHandshake, WithdrawnRequestKeepsTheOlderSameIdEntry) {
  // Accept id 1 at 0x100, then present id 1 at 0x200 and withdraw it.
  bool& ready = TypeParam::kIsWrite ? this->s_.aw_ready : this->s_.ar_ready;
  this->present(true, 0x100);
  ready = true;
  this->run(1);
  ready = false;
  this->present(true, 0x200);
  this->run(2);
  this->present(false, 0x200);
  this->run(1);
  EXPECT_EQ(this->count(tmu::FaultKind::kHandshake), 1u);
  const tmu::Ott& ott = this->guard_.ott();
  ASSERT_EQ(ott.occupancy(), 1u);
  const int idx = ott.order().front();
  const tmu::LdEntry& e = ott.at(idx);
  EXPECT_EQ(e.addr, 0x100u);
  EXPECT_TRUE(e.accepted);
  EXPECT_EQ(ott.head_of(e.tid), idx);
  EXPECT_EQ(this->guard_.remapper().active_ids(), 1u);
}

TYPED_TEST(GuardHandshake, UnrequestedResponseFlaggedOncePerAssertion) {
  this->respond(true, 5);
  this->run(4);
  EXPECT_EQ(this->count(tmu::FaultKind::kUnrequested), 1u);
  this->respond(false, 5);
  this->run(1);
  this->respond(true, 5);
  this->run(3);
  EXPECT_EQ(this->count(tmu::FaultKind::kUnrequested), 2u);
  EXPECT_EQ(this->guard_.faults().size(), 2u);
  for (const tmu::FaultRecord& f : this->guard_.faults()) {
    EXPECT_EQ(f.is_write, TypeParam::kIsWrite);
    EXPECT_EQ(f.id, 5u);
  }
}


/// Presents AW id 1 at 0x100 until it is accepted, then AW id 1 at
/// 0x200 for one cycle and withdraws it. Counts SLVERR B responses.
class WithdrawingWriter : public sim::Module {
 public:
  explicit WithdrawingWriter(Link& link) : sim::Module("mgr"), link_(link) {}

  void eval() override {
    AxiReq q{};
    q.b_ready = true;
    if (stage_ < 2) {
      q.aw_valid = true;
      q.aw = AxFlit{1, stage_ == 0 ? Addr{0x100} : Addr{0x200}, 0, 3,
                    Burst::kIncr};
    }
    link_.req.write(q);
  }
  void tick() override {
    const AxiReq q = link_.req.read();
    const AxiRsp s = link_.rsp.read();
    if (stage_ == 1) stage_ = 2;
    if (stage_ == 0 && aw_fire(q, s)) stage_ = 1;
    if (b_fire(q, s) && s.b.id == 1 && s.b.resp == Resp::kSlvErr) ++slverr_b_;
  }
  void reset() override {
    stage_ = 0;
    slverr_b_ = 0;
    link_.req.force(AxiReq{});
  }

  unsigned slverr_b() const { return slverr_b_; }

 private:
  Link& link_;
  int stage_ = 0;
  unsigned slverr_b_ = 0;
};

TEST(GuardEdge, SeverAbortsTheWriteAcceptedBeforeAWithdrawnSameIdRequest) {
  Link l_mgr, l_mem;
  MemoryConfig mem_cfg;
  mem_cfg.aw_accept_latency = 2;  // the second AW is withdrawn unaccepted
  WithdrawingWriter mgr(l_mgr);
  tmu::Tmu monitor("tmu", l_mgr, l_mem, adaptive_cfg());
  MemorySubordinate mem("mem", l_mem, mem_cfg);
  sim::Simulator s;
  s.add(mgr);
  s.add(monitor);
  s.add(mem);
  s.reset();
  ASSERT_TRUE(s.run_until([&] { return monitor.severed(); }, 50));
  s.run(20);
  ASSERT_EQ(monitor.fault_log().size(), 1u);
  EXPECT_EQ(monitor.fault_log().front().kind, tmu::FaultKind::kHandshake);
  // The accepted write at 0x100 is aborted; the withdrawn one never was
  // accepted, so it gets no response.
  EXPECT_EQ(mgr.slverr_b(), 1u);
}

}  // namespace
