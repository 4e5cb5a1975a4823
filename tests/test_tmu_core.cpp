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
using fault::FaultInjector;
using fault::FaultPoint;
using tmu::FaultKind;
using tmu::ReadPhase;
using tmu::Tmu;
using tmu::TmuConfig;
using tmu::Variant;
using tmu::WritePhase;

TmuConfig test_cfg(Variant v) {
  TmuConfig cfg;
  cfg.variant = v;
  cfg.max_uniq_ids = 4;
  cfg.txn_per_uniq_id = 4;
  cfg.budgets.aw_vld_aw_rdy = 10;
  cfg.budgets.aw_rdy_w_vld = 20;
  cfg.budgets.w_vld_w_rdy = 10;
  cfg.budgets.w_first_w_last = 40;
  cfg.budgets.w_last_b_vld = 20;
  cfg.budgets.b_vld_b_rdy = 10;
  cfg.budgets.ar_vld_ar_rdy = 10;
  cfg.budgets.ar_rdy_r_vld = 20;
  cfg.budgets.r_vld_r_rdy = 10;
  cfg.budgets.r_vld_r_last = 40;
  cfg.tc_total_budget = 100;
  cfg.adaptive.enabled = false;
  return cfg;
}

/// gen -> [mgr injector] -> TMU -> [sub injector] -> memory, with the
/// external reset unit wired to the TMU's reset_req/reset_ack.
struct TmuBench {
  Link l_gen, l_tmu_mst, l_tmu_sub, l_mem;
  TrafficGenerator gen{"gen", l_gen};
  FaultInjector inj_m{"inj_m", l_gen, l_tmu_mst};
  Tmu tmu;
  FaultInjector inj_s{"inj_s", l_tmu_sub, l_mem};
  MemorySubordinate mem{"mem", l_mem};
  soc::ResetUnit rst;
  sim::Simulator s;

  explicit TmuBench(const TmuConfig& cfg)
      : tmu("tmu", l_tmu_mst, l_tmu_sub, cfg),
        rst("rst", tmu.reset_req, tmu.reset_ack, [this] { mem.hw_reset(); }) {
    s.add(gen);
    s.add(inj_m);
    s.add(tmu);
    s.add(inj_s);
    s.add(mem);
    s.add(rst);
    s.reset();
  }

  bool wait_fault(std::uint64_t budget = 2000) {
    return s.run_until([&] { return tmu.any_fault(); }, budget);
  }

  std::uint64_t detection_latency(const FaultInjector& inj) const {
    return tmu.fault_log().front().cycle - inj.fault_start_cycle();
  }
};

// ------------------------- transparency -------------------------------

TEST(TmuCore, TransparentForHealthyTraffic) {
  // Adaptive budgeting on: with several outstanding transactions, the
  // queue-waiting time legitimately exceeds the static budget (§II-F).
  TmuConfig cfg = test_cfg(Variant::kFullCounter);
  cfg.adaptive.enabled = true;
  TmuBench b(cfg);
  for (int i = 0; i < 8; ++i) {
    b.gen.push(TxnDesc{true, static_cast<Id>(i % 3), static_cast<Addr>(i * 0x40),
                       3, 3, Burst::kIncr});
    b.gen.push(TxnDesc{false, static_cast<Id>(i % 3),
                       static_cast<Addr>(i * 0x40), 3, 3, Burst::kIncr});
  }
  ASSERT_TRUE(b.s.run_until([&] { return b.gen.completed() >= 16; }, 4000));
  EXPECT_FALSE(b.tmu.any_fault());
  EXPECT_EQ(b.gen.error_responses(), 0u);
  EXPECT_EQ(b.gen.data_mismatches(), 0u);
  EXPECT_EQ(b.tmu.write_guard().stats().completed, 8u);
  EXPECT_EQ(b.tmu.read_guard().stats().completed, 8u);
}

TEST(TmuCore, AddsNoLatency) {
  // Same traffic with and without the TMU in the path.
  auto run_latency = [](bool with_tmu) {
    if (with_tmu) {
      TmuBench b(test_cfg(Variant::kFullCounter));
      b.gen.push(TxnDesc{true, 0, 0x100, 7, 3, Burst::kIncr});
      b.s.run_until([&] { return b.gen.completed() >= 1; }, 500);
      return b.gen.records()[0].complete_cycle;
    }
    Link link;
    TrafficGenerator gen("gen", link);
    MemorySubordinate mem("mem", link);
    sim::Simulator s;
    s.add(gen);
    s.add(mem);
    s.reset();
    gen.push(TxnDesc{true, 0, 0x100, 7, 3, Burst::kIncr});
    s.run_until([&] { return gen.completed() >= 1; }, 500);
    return gen.records()[0].complete_cycle;
  };
  EXPECT_EQ(run_latency(true), run_latency(false));
}

// --------------------- Fc write-phase fault detection ------------------

struct WriteFaultCase {
  FaultPoint point;
  WritePhase expect_phase;
  FaultKind expect_kind;
  std::uint32_t expect_budget;  // 0 = don't check
};

class FcWriteFaults : public ::testing::TestWithParam<WriteFaultCase> {};

TEST_P(FcWriteFaults, DetectsAtFailingPhase) {
  const WriteFaultCase c = GetParam();
  TmuBench b(test_cfg(Variant::kFullCounter));
  auto& inj = fault::is_manager_side(c.point) ? b.inj_m : b.inj_s;
  inj.arm(c.point, 0, c.point == FaultPoint::kMidBurstWStall ? 3u : 0u);
  b.gen.push(TxnDesc{true, 1, 0x100, 7, 3, Burst::kIncr});
  ASSERT_TRUE(b.wait_fault());
  const tmu::FaultRecord& f = b.tmu.fault_log().front();
  EXPECT_TRUE(f.is_write);
  EXPECT_EQ(f.kind, c.expect_kind) << f.describe();
  if (f.kind == FaultKind::kTimeout) {
    EXPECT_EQ(static_cast<WritePhase>(f.phase), c.expect_phase)
        << f.describe();
    if (c.expect_budget) {
      EXPECT_EQ(f.budget, c.expect_budget);
      EXPECT_GE(f.elapsed, f.budget);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Points, FcWriteFaults,
    ::testing::Values(
        WriteFaultCase{FaultPoint::kAwReadyStuck, WritePhase::kAwVldAwRdy,
                       FaultKind::kTimeout, 10},
        WriteFaultCase{FaultPoint::kWValidStuck, WritePhase::kAwRdyWVld,
                       FaultKind::kTimeout, 20},
        WriteFaultCase{FaultPoint::kWReadyStuck, WritePhase::kWVldWRdy,
                       FaultKind::kTimeout, 10},
        WriteFaultCase{FaultPoint::kMidBurstWStall, WritePhase::kWFirstWLast,
                       FaultKind::kTimeout, 40},
        WriteFaultCase{FaultPoint::kBValidStuck, WritePhase::kWLastBVld,
                       FaultKind::kTimeout, 20},
        WriteFaultCase{FaultPoint::kBWrongId, WritePhase::kWLastBVld,
                       FaultKind::kUnrequested, 0},
        WriteFaultCase{FaultPoint::kSpuriousB, WritePhase::kWLastBVld,
                       FaultKind::kUnrequested, 0},
        WriteFaultCase{FaultPoint::kWLastEarly, WritePhase::kWFirstWLast,
                       FaultKind::kHandshake, 0}));

// --------------------- Fc read-phase fault detection -------------------

struct ReadFaultCase {
  FaultPoint point;
  ReadPhase expect_phase;
  FaultKind expect_kind;
};

class FcReadFaults : public ::testing::TestWithParam<ReadFaultCase> {};

TEST_P(FcReadFaults, DetectsAtFailingPhase) {
  const ReadFaultCase c = GetParam();
  TmuBench b(test_cfg(Variant::kFullCounter));
  b.inj_s.arm(c.point, 0, 0, c.point == FaultPoint::kMidBurstRStall ? 3u : 0u);
  b.gen.push(TxnDesc{false, 2, 0x200, 7, 3, Burst::kIncr});
  ASSERT_TRUE(b.wait_fault());
  const tmu::FaultRecord& f = b.tmu.fault_log().front();
  EXPECT_FALSE(f.is_write);
  EXPECT_EQ(f.kind, c.expect_kind) << f.describe();
  if (f.kind == FaultKind::kTimeout) {
    EXPECT_EQ(static_cast<ReadPhase>(f.phase), c.expect_phase)
        << f.describe();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Points, FcReadFaults,
    ::testing::Values(
        ReadFaultCase{FaultPoint::kArReadyStuck, ReadPhase::kArVldArRdy,
                      FaultKind::kTimeout},
        ReadFaultCase{FaultPoint::kRValidStuck, ReadPhase::kArRdyRVld,
                      FaultKind::kTimeout},
        ReadFaultCase{FaultPoint::kMidBurstRStall, ReadPhase::kRVldRLast,
                      FaultKind::kTimeout},
        ReadFaultCase{FaultPoint::kRWrongId, ReadPhase::kArRdyRVld,
                      FaultKind::kUnrequested},
        ReadFaultCase{FaultPoint::kSpuriousR, ReadPhase::kArRdyRVld,
                      FaultKind::kUnrequested}));

// ------------------------- Tc vs Fc latency ---------------------------

TEST(TmuCore, TcDetectsOnlyAtTotalBudget) {
  TmuBench b(test_cfg(Variant::kTinyCounter));
  b.inj_s.arm(FaultPoint::kAwReadyStuck);
  b.gen.push(TxnDesc{true, 0, 0x100, 7, 3, Burst::kIncr});
  ASSERT_TRUE(b.wait_fault());
  const tmu::FaultRecord& f = b.tmu.fault_log().front();
  EXPECT_EQ(f.kind, FaultKind::kTimeout);
  EXPECT_FALSE(f.phase_valid);         // Tc: no phase-level information
  EXPECT_EQ(f.budget, 100u);           // whole-transaction budget
  EXPECT_GE(f.elapsed, 100u);
}

TEST(TmuCore, FcDetectsEarlierThanTc) {
  auto detect_cycle = [](Variant v) {
    TmuBench b(test_cfg(v));
    b.inj_s.arm(FaultPoint::kAwReadyStuck);
    b.gen.push(TxnDesc{true, 0, 0x100, 7, 3, Burst::kIncr});
    b.wait_fault();
    return b.tmu.fault_log().front().cycle;
  };
  const auto fc = detect_cycle(Variant::kFullCounter);
  const auto tc = detect_cycle(Variant::kTinyCounter);
  EXPECT_LT(fc + 50, tc);  // 10-cycle AW budget vs 100-cycle total
}

// --------------------------- recovery ---------------------------------

TEST(TmuCore, FaultTriggersIrqAndReset) {
  TmuBench b(test_cfg(Variant::kFullCounter));
  b.inj_s.arm(FaultPoint::kBValidStuck);
  b.gen.push(TxnDesc{true, 0, 0x100, 3, 3, Burst::kIncr});
  ASSERT_TRUE(b.wait_fault());
  b.s.run(2);
  EXPECT_TRUE(b.tmu.irq.read());
  EXPECT_EQ(b.tmu.resets_requested(), 1u);
  // Reset unit performs the subordinate reset and the TMU recovers.
  ASSERT_TRUE(b.s.run_until([&] { return !b.tmu.severed(); }, 300));
  EXPECT_EQ(b.rst.resets_performed(), 1u);
  EXPECT_EQ(b.tmu.recoveries(), 1u);
}

TEST(TmuCore, OutstandingTxnsAbortedWithSlvErr) {
  TmuBench b(test_cfg(Variant::kFullCounter));
  b.inj_s.arm(FaultPoint::kBValidStuck);
  b.gen.push(TxnDesc{true, 0, 0x100, 3, 3, Burst::kIncr});
  ASSERT_TRUE(b.wait_fault());
  ASSERT_TRUE(b.s.run_until([&] { return b.gen.completed() >= 1; }, 300));
  EXPECT_EQ(b.gen.records()[0].resp, Resp::kSlvErr);
}

TEST(TmuCore, TrafficFlowsAgainAfterRecovery) {
  TmuBench b(test_cfg(Variant::kFullCounter));
  b.inj_s.arm(FaultPoint::kBValidStuck);
  b.gen.push(TxnDesc{true, 0, 0x100, 3, 3, Burst::kIncr});
  ASSERT_TRUE(b.wait_fault());
  ASSERT_TRUE(b.s.run_until([&] { return !b.tmu.severed(); }, 500));
  b.inj_s.disarm();
  b.tmu.clear_irq();
  b.gen.push(TxnDesc{true, 1, 0x200, 3, 3, Burst::kIncr});
  b.gen.push(TxnDesc{false, 1, 0x200, 3, 3, Burst::kIncr});
  ASSERT_TRUE(b.s.run_until([&] { return b.gen.completed() >= 3; }, 1000));
  EXPECT_EQ(b.gen.records()[1].resp, Resp::kOkay);
  EXPECT_EQ(b.gen.records()[2].resp, Resp::kOkay);
  EXPECT_FALSE(b.tmu.irq.read());
  EXPECT_EQ(b.tmu.fault_log().size(), 1u);  // no new faults
}

TEST(TmuCore, ReadAbortDeliversAllRemainingBeats) {
  TmuBench b(test_cfg(Variant::kFullCounter));
  b.inj_s.arm(FaultPoint::kMidBurstRStall, 0, 0, 3);
  b.gen.push(TxnDesc{false, 0, 0x0, 7, 3, Burst::kIncr});
  ASSERT_TRUE(b.wait_fault());
  ASSERT_TRUE(b.s.run_until([&] { return b.gen.completed() >= 1; }, 500));
  EXPECT_EQ(b.gen.records()[0].resp, Resp::kSlvErr);
  // After the aborts drain and the reset unit acknowledges, the TMU
  // leaves the severed state.
  EXPECT_TRUE(b.s.run_until([&] { return !b.tmu.severed(); }, 500));
}

// ---------------------- saturation / gating ---------------------------

TEST(TmuCore, OttSaturationStallsWithoutDropping) {
  TmuConfig cfg = test_cfg(Variant::kFullCounter);
  cfg.max_uniq_ids = 2;
  cfg.txn_per_uniq_id = 2;
  cfg.adaptive.enabled = true;  // avoid queue-wait false timeouts
  TmuBench b(cfg);
  for (int i = 0; i < 12; ++i) {
    b.gen.push(TxnDesc{true, static_cast<Id>(i % 2),
                       static_cast<Addr>(i * 0x40), 3, 3, Burst::kIncr});
  }
  ASSERT_TRUE(b.s.run_until([&] { return b.gen.completed() >= 12; }, 4000));
  EXPECT_FALSE(b.tmu.any_fault());
  EXPECT_EQ(b.gen.error_responses(), 0u);
}

TEST(TmuCore, IdRemapperSaturationStallsNewIds) {
  TmuConfig cfg = test_cfg(Variant::kFullCounter);
  cfg.max_uniq_ids = 2;
  cfg.txn_per_uniq_id = 4;
  cfg.adaptive.enabled = true;
  TmuBench b(cfg);
  // Six distinct sparse IDs through a 2-slot remapper.
  for (int i = 0; i < 6; ++i) {
    b.gen.push(TxnDesc{true, static_cast<Id>(0x10 + 7 * i),
                       static_cast<Addr>(i * 0x40), 1, 3, Burst::kIncr});
  }
  ASSERT_TRUE(b.s.run_until([&] { return b.gen.completed() >= 6; }, 4000));
  EXPECT_FALSE(b.tmu.any_fault());
}

// ----------------------- prescaler / sticky ---------------------------

TEST(TmuCore, PrescalerRoundsDetectionUp) {
  TmuConfig cfg = test_cfg(Variant::kTinyCounter);
  cfg.tc_total_budget = 100;
  auto latency = [&](std::uint32_t step) {
    cfg.prescaler_step = step;
    cfg.sticky_bit = step > 1;
    TmuBench b(cfg);
    b.inj_s.arm(FaultPoint::kAwReadyStuck);
    b.gen.push(TxnDesc{true, 0, 0x100, 0, 3, Burst::kIncr});
    b.wait_fault();
    return b.detection_latency(b.inj_s);
  };
  const auto l1 = latency(1);
  const auto l32 = latency(32);
  const auto l128 = latency(128);
  // Exact detection with step 1; with a prescaler the detection lands
  // within one prescaler period of the budget on either side (the sticky
  // bit may latch the near-timeout one pulse early, never late).
  EXPECT_GE(l1 + 2, 100u);
  EXPECT_LE(l1, 102u);
  EXPECT_GE(l32 + 32, 100u);
  EXPECT_LT(l32, 100u + 2 * 32);
  EXPECT_GE(l128 + 128, 100u);
  EXPECT_LT(l128, 100u + 2 * 128);
}

// A step written through kPrescaler must keep every armed counter's
// limit in line with its pulse rate, in both variants and directions.
struct StepCase {
  Variant variant;
  bool is_write;
};

class PrescalerWrite : public ::testing::TestWithParam<StepCase> {
 protected:
  /// Tc whole-transaction and Fc address-handshake budgets of 100.
  static TmuConfig cfg_with_step(std::uint32_t step) {
    TmuConfig cfg = test_cfg(GetParam().variant);
    cfg.tc_total_budget = 100;
    cfg.budgets.aw_vld_aw_rdy = 100;
    cfg.budgets.ar_vld_ar_rdy = 100;
    cfg.prescaler_step = step;
    return cfg;
  }

  static FaultPoint stuck_ready() {
    return GetParam().is_write ? FaultPoint::kAwReadyStuck
                               : FaultPoint::kArReadyStuck;
  }

  /// Detection latency of a stuck AW/AR ready on a TMU built with step
  /// `built` and reprogrammed to `written` before any traffic.
  static std::uint64_t stuck_latency(std::uint32_t built,
                                     std::uint32_t written) {
    TmuBench b(cfg_with_step(built));
    b.tmu.write_reg(tmu::regs::kPrescaler, written);
    b.inj_s.arm(stuck_ready());
    b.gen.push(TxnDesc{GetParam().is_write, 0, 0x100, 0, 3, Burst::kIncr});
    if (!b.wait_fault(4000)) {
      ADD_FAILURE() << "stuck ready never detected";
      return 0;
    }
    return b.detection_latency(b.inj_s);
  }
};

TEST_P(PrescalerWrite, StepUpDetectsLikeBuiltStep) {
  // The bounds PrescalerRoundsDetectionUp holds a TMU built at step 32 to.
  const auto l = stuck_latency(1, 32);
  EXPECT_GE(l + 32, 100u);
  EXPECT_LT(l, 100u + 2 * 32);
}

TEST_P(PrescalerWrite, StepDownDetectsAtBudget) {
  const auto l = stuck_latency(32, 1);
  EXPECT_GE(l + 2, 100u);
  EXPECT_LE(l, 102u);
}

TEST_P(PrescalerWrite, HealthyTrafficAfterStepUp) {
  TmuConfig cfg = cfg_with_step(1);
  cfg.tc_total_budget = 200;
  cfg.budgets.b_vld_b_rdy = 200;
  cfg.budgets.r_vld_r_rdy = 200;
  TmuBench b(cfg);
  b.tmu.write_reg(tmu::regs::kPrescaler, 32);
  b.gen.set_b_ready_delay(60);
  b.gen.set_r_ready_delay(60);
  b.gen.push(TxnDesc{GetParam().is_write, 0, 0x100, 0, 3, Burst::kIncr});
  ASSERT_TRUE(b.s.run_until([&] { return b.gen.completed() >= 1; }, 1000));
  EXPECT_FALSE(b.tmu.any_fault())
      << b.tmu.fault_log().front().describe();
  EXPECT_EQ(b.gen.error_responses(), 0u);
}

TEST_P(PrescalerWrite, StepWrittenMidTransactionKeepsItsRate) {
  TmuBench b(cfg_with_step(32));
  b.inj_s.arm(stuck_ready());
  b.gen.push(TxnDesc{GetParam().is_write, 0, 0x100, 0, 3, Burst::kIncr});
  b.s.run(20);
  ASSERT_FALSE(b.tmu.any_fault());
  b.tmu.write_reg(tmu::regs::kPrescaler, 1);
  ASSERT_TRUE(b.wait_fault());
  const auto l = b.detection_latency(b.inj_s);
  EXPECT_GE(l + 32, 100u);
  EXPECT_LT(l, 100u + 2 * 32);
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndDirections, PrescalerWrite,
    ::testing::Values(StepCase{Variant::kTinyCounter, true},
                      StepCase{Variant::kTinyCounter, false},
                      StepCase{Variant::kFullCounter, true},
                      StepCase{Variant::kFullCounter, false}),
    [](const ::testing::TestParamInfo<StepCase>& info) {
      return std::string(tmu::to_string(info.param.variant)) +
             (info.param.is_write ? "Write" : "Read");
    });

TEST(TmuCore, StickyBitStillDetects) {
  TmuConfig cfg = test_cfg(Variant::kFullCounter);
  cfg.prescaler_step = 16;
  cfg.sticky_bit = true;
  TmuBench b(cfg);
  b.inj_s.arm(FaultPoint::kAwReadyStuck);
  b.gen.push(TxnDesc{true, 0, 0x100, 0, 3, Burst::kIncr});
  ASSERT_TRUE(b.wait_fault());
  EXPECT_EQ(b.tmu.fault_log().front().kind, FaultKind::kTimeout);
}

// --------------------------- handshake --------------------------------

TEST(TmuCore, AwValidDropFlagsHandshakeFault) {
  TmuBench b(test_cfg(Variant::kFullCounter));
  // Let the AW be presented for 3 cycles (mem aw_accept_latency 0 means
  // instant accept, so stall the subordinate side first).
  b.inj_s.arm(FaultPoint::kAwReadyStuck);
  b.inj_m.arm(FaultPoint::kAwValidDrop, 5);
  b.gen.push(TxnDesc{true, 0, 0x100, 0, 3, Burst::kIncr});
  ASSERT_TRUE(b.wait_fault(200));
  EXPECT_EQ(b.tmu.fault_log().front().kind, FaultKind::kHandshake);
}

// ----------------------------- disable --------------------------------

TEST(TmuCore, DisabledTmuDoesNotDetect) {
  TmuConfig cfg = test_cfg(Variant::kFullCounter);
  cfg.enabled = false;
  TmuBench b(cfg);
  b.inj_s.arm(FaultPoint::kAwReadyStuck);
  b.gen.push(TxnDesc{true, 0, 0x100, 0, 3, Burst::kIncr});
  b.s.run(500);
  EXPECT_FALSE(b.tmu.any_fault());
  EXPECT_FALSE(b.tmu.irq.read());
}

// ---------------------------- perf log --------------------------------

TEST(TmuCore, FcPerfLogRecordsPhaseTimings) {
  TmuBench b(test_cfg(Variant::kFullCounter));
  b.gen.push(TxnDesc{true, 0, 0x100, 7, 3, Burst::kIncr});
  ASSERT_TRUE(b.s.run_until([&] { return b.gen.completed() >= 1; }, 500));
  const auto& log = b.tmu.write_guard().perf_log();
  ASSERT_EQ(log.size(), 1u);
  const auto& rec = log[0];
  EXPECT_TRUE(rec.is_write);
  EXPECT_EQ(rec.len, 7);
  // Data phase spans at least beats-1 cycles.
  EXPECT_GE(rec.phase_cycles[3], 7u);
  EXPECT_GT(rec.total_cycles, 0u);
}

TEST(TmuCore, TcHasNoPerfLog) {
  TmuBench b(test_cfg(Variant::kTinyCounter));
  b.gen.push(TxnDesc{true, 0, 0x100, 3, 3, Burst::kIncr});
  ASSERT_TRUE(b.s.run_until([&] { return b.gen.completed() >= 1; }, 500));
  EXPECT_TRUE(b.tmu.write_guard().perf_log().empty());
}

// ----------------------------- registers ------------------------------

TEST(TmuRegs, CapacityAndCtrlReadback) {
  TmuBench b(test_cfg(Variant::kFullCounter));
  using namespace tmu::regs;
  const auto cap = b.tmu.read_reg(kCapacity);
  EXPECT_EQ(cap & 0xFF, 4u);
  EXPECT_EQ((cap >> 8) & 0xFF, 4u);
  EXPECT_EQ(cap >> 16, 16u);
  EXPECT_EQ(b.tmu.read_reg(kCtrl) & 1u, 1u);
  EXPECT_EQ((b.tmu.read_reg(kCtrl) >> 8) & 1u, 1u);  // Fc
}

TEST(TmuRegs, BudgetWriteReadback) {
  TmuBench b(test_cfg(Variant::kFullCounter));
  using namespace tmu::regs;
  b.tmu.write_reg(kBudgetAw, 77);
  EXPECT_EQ(b.tmu.read_reg(kBudgetAw), 77u);
  b.tmu.write_reg(kTcBudget, 320);
  EXPECT_EQ(b.tmu.read_reg(kTcBudget), 320u);
  b.tmu.write_reg(kPrescaler, 32u | (1u << 31));
  EXPECT_EQ(b.tmu.read_reg(kPrescaler), 32u | (1u << 31));
}

TEST(TmuRegs, FaultFifoAndIrqClear) {
  TmuBench b(test_cfg(Variant::kFullCounter));
  using namespace tmu::regs;
  b.inj_s.arm(FaultPoint::kAwReadyStuck);
  b.gen.push(TxnDesc{true, 0, 0x100, 0, 3, Burst::kIncr});
  ASSERT_TRUE(b.wait_fault());
  b.s.run(2);
  EXPECT_EQ(b.tmu.read_reg(kFaultCount), 1u);
  const auto info = b.tmu.read_reg(kFaultInfo);
  EXPECT_EQ(info & 0xF, 0u);              // kind = timeout
  EXPECT_EQ((info >> 8) & 1u, 1u);        // is_write
  EXPECT_EQ(b.tmu.read_reg(kFaultInfo), 0u);  // FIFO drained
  EXPECT_EQ((b.tmu.read_reg(kStatus) >> 1) & 1u, 1u);  // irq pending
  b.tmu.write_reg(kIrqClear, 1);
  b.s.run(2);
  EXPECT_EQ((b.tmu.read_reg(kStatus) >> 1) & 1u, 0u);
}

TEST(TmuRegs, TxnCountReadsOneAfterACompletedWrite) {
  TmuBench b(test_cfg(Variant::kFullCounter));
  b.gen.push(TxnDesc{true, 0, 0x100, 3, 3, Burst::kIncr});
  ASSERT_TRUE(b.s.run_until([&] { return b.gen.completed() >= 1; }, 300));
  EXPECT_EQ(b.tmu.read_reg(tmu::regs::kTxnCount), 1u);
}

TEST(TmuRegs, BudgetWriteSetsTheNextDetectionsBudget) {
  // Adaptive budgets on at build time; the Ctrl write turns them off so
  // the written AW budget is the one the detection reports.
  TmuConfig cfg = test_cfg(Variant::kFullCounter);
  cfg.adaptive.enabled = true;
  TmuBench b(cfg);
  using namespace tmu::regs;
  b.tmu.write_reg(kBudgetAw, 5);
  b.tmu.write_reg(kCtrl, 0b0111);  // adaptive off
  b.inj_s.arm(FaultPoint::kAwReadyStuck);
  b.gen.push(TxnDesc{true, 0, 0x100, 0, 3, Burst::kIncr});
  ASSERT_TRUE(b.wait_fault(300));
  EXPECT_EQ(b.tmu.fault_log().front().budget, 5u);
}

TEST(TmuRegs, RuntimeDisableViaCtrl) {
  TmuBench b(test_cfg(Variant::kFullCounter));
  using namespace tmu::regs;
  b.tmu.write_reg(kCtrl, 0);  // disable everything
  b.inj_s.arm(FaultPoint::kAwReadyStuck);
  b.gen.push(TxnDesc{true, 0, 0x100, 0, 3, Burst::kIncr});
  b.s.run(300);
  EXPECT_FALSE(b.tmu.any_fault());
}

}  // namespace
