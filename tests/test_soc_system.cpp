#include <gtest/gtest.h>

#include <memory>

#include "axi/memory.hpp"
#include "axi/traffic_gen.hpp"
#include "fault/injector.hpp"
#include "soc/builder.hpp"
#include "soc/cpu_stub.hpp"
#include "soc/idma.hpp"
#include "soc/reset_unit.hpp"
#include "soc/topologies.hpp"
#include "tmu/tmu.hpp"

namespace {

using axi::Burst;
using axi::TrafficGenerator;
using axi::TxnDesc;
using fault::FaultInjector;
using fault::FaultPoint;
using soc::CheshireMap;
using soc::EthernetPeripheral;
using tmu::TmuConfig;
using tmu::Variant;

/// The paper's system-level configuration: Tc uses a single 320-cycle
/// budget; Fc allocates per-phase budgets (10 AW, 20 AW->W, 250 W, ...).
TmuConfig system_cfg(Variant v) {
  TmuConfig cfg;
  cfg.variant = v;
  cfg.max_uniq_ids = 4;
  cfg.txn_per_uniq_id = 8;
  cfg.tc_total_budget = 320;
  cfg.budgets.aw_vld_aw_rdy = 10;
  cfg.budgets.aw_rdy_w_vld = 20;
  cfg.budgets.w_vld_w_rdy = 10;
  cfg.budgets.w_first_w_last = 250;
  cfg.budgets.w_last_b_vld = 10;
  cfg.budgets.b_vld_b_rdy = 10;
  cfg.budgets.ar_vld_ar_rdy = 10;
  cfg.budgets.ar_rdy_r_vld = 20;
  cfg.budgets.r_vld_r_rdy = 10;
  cfg.budgets.r_vld_r_last = 250;
  cfg.adaptive.enabled = false;
  cfg.max_txn_cycles = 320;
  return cfg;
}

std::unique_ptr<soc::Soc> cheshire(const TmuConfig& cfg) {
  return soc::SocBuilder::build(soc::cheshire_desc(cfg));
}

TEST(Cheshire, HealthyMixedTrafficRunsClean) {
  // Several 32-beat writes queue behind each other at the Ethernet
  // endpoint: the queue-waiting phase legitimately exceeds its static
  // budget, so adaptive budgeting (§II-F) must be on.
  TmuConfig cfg = system_cfg(Variant::kFullCounter);
  cfg.adaptive.enabled = true;
  const auto sys = cheshire(cfg);
  auto& cva6_0 = sys->get<TrafficGenerator>("cva6_0");
  auto& cva6_1 = sys->get<TrafficGenerator>("cva6_1");
  auto& idma = sys->get<TrafficGenerator>("idma");
  // CPU0 writes DRAM, CPU1 reads peripheral, iDMA streams to Ethernet.
  for (int i = 0; i < 4; ++i) {
    cva6_0.push(TxnDesc{true, 0, CheshireMap::kDramBase + i * 0x100, 7, 3,
                        Burst::kIncr});
    cva6_1.push(TxnDesc{false, 1, CheshireMap::kPeriphBase + i * 0x100, 7, 3,
                        Burst::kIncr});
    idma.push(TxnDesc{true, 2, CheshireMap::kEthTxWindow, 31, 3,
                      Burst::kIncr});
  }
  ASSERT_TRUE(sys->sim().run_until(
      [&] {
        return cva6_0.completed() >= 4 && cva6_1.completed() >= 4 &&
               idma.completed() >= 4;
      },
      8000));
  EXPECT_FALSE(sys->get<tmu::Tmu>("tmu").any_fault());
  EXPECT_GT(sys->get<EthernetPeripheral>("ethernet").frames_txed(), 0u);
}

TEST(Cheshire, EthernetStallDetectedAndRecovered) {
  const auto sys = cheshire(system_cfg(Variant::kFullCounter));
  auto& inj_s = sys->get<FaultInjector>("inj_s");
  auto& idma = sys->get<TrafficGenerator>("idma");
  auto& tmu = sys->get<tmu::Tmu>("tmu");
  auto& ethernet = sys->get<EthernetPeripheral>("ethernet");
  auto& cpu = sys->get<soc::CpuRecoveryStub>("cva6_irq_handler");
  inj_s.arm(FaultPoint::kBValidStuck);
  idma.push(TxnDesc{true, 2, CheshireMap::kEthTxWindow, 63, 3, Burst::kIncr});
  ASSERT_TRUE(sys->sim().run_until([&] { return tmu.any_fault(); }, 3000));
  // Full recovery loop: reset unit fires, Ethernet resets, CPU services
  // the interrupt, TMU resumes.
  ASSERT_TRUE(sys->sim().run_until(
      [&] { return !tmu.severed() && cpu.irqs_handled() >= 1; }, 2000));
  EXPECT_EQ(ethernet.hw_resets(), 1u);
  EXPECT_EQ(sys->get<soc::ResetUnit>("reset_unit").resets_performed(), 1u);
  EXPECT_GE(cpu.faults_read(), 1u);
  sys->sim().run(2);  // let the handler's IrqClear write take effect
  EXPECT_FALSE(tmu.irq.read());

  // Ethernet is alive again.
  inj_s.disarm();
  const auto before = ethernet.writes_done();
  idma.push(TxnDesc{true, 2, CheshireMap::kEthTxWindow, 15, 3, Burst::kIncr});
  ASSERT_TRUE(sys->sim().run_until(
      [&] { return ethernet.writes_done() > before; }, 2000));
}

TEST(Cheshire, DramTrafficUnaffectedByEthernetFault) {
  const auto sys = cheshire(system_cfg(Variant::kFullCounter));
  auto& cva6_0 = sys->get<TrafficGenerator>("cva6_0");
  sys->get<FaultInjector>("inj_s").arm(FaultPoint::kAwReadyStuck);
  sys->get<TrafficGenerator>("idma").push(
      TxnDesc{true, 2, CheshireMap::kEthTxWindow, 15, 3, Burst::kIncr});
  for (int i = 0; i < 8; ++i) {
    cva6_0.push(TxnDesc{true, 0, CheshireMap::kDramBase + i * 0x80, 3, 3,
                        Burst::kIncr});
  }
  ASSERT_TRUE(
      sys->sim().run_until([&] { return cva6_0.completed() >= 8; }, 4000));
  EXPECT_EQ(cva6_0.error_responses(), 0u);
  // The Ethernet fault is isolated to the iDMA transaction.
  EXPECT_TRUE(sys->get<tmu::Tmu>("tmu").any_fault());
}

/// Arms `point` on the Ethernet side, streams a 250-beat write into the
/// Ethernet IP, and returns the first detection.
tmu::FaultRecord first_detection(Variant v, FaultPoint point) {
  const auto sys = cheshire(system_cfg(v));
  const auto& tmu = sys->get<tmu::Tmu>("tmu");
  sys->get<FaultInjector>("inj_s").arm(point);
  sys->get<TrafficGenerator>("idma").push(
      TxnDesc{true, 2, CheshireMap::kEthTxWindow, 249, 3, Burst::kIncr});
  EXPECT_TRUE(sys->sim().run_until([&] { return tmu.any_fault(); }, 3000));
  return tmu.fault_log().empty() ? tmu::FaultRecord{}
                                 : tmu.fault_log().front();
}

TEST(Cheshire, TcDetectsAt320Cycles) {
  const tmu::FaultRecord f =
      first_detection(Variant::kTinyCounter, FaultPoint::kAwReadyStuck);
  EXPECT_EQ(f.budget, 320u);
  EXPECT_GE(f.elapsed, 320u);
}

TEST(Cheshire, FcDetectsAwStallAtTenCycles) {
  const tmu::FaultRecord f =
      first_detection(Variant::kFullCounter, FaultPoint::kAwReadyStuck);
  EXPECT_EQ(f.budget, 10u);
  EXPECT_EQ(static_cast<tmu::WritePhase>(f.phase),
            tmu::WritePhase::kAwVldAwRdy);
}

TEST(Cheshire, RepeatedFaultsRepeatedRecoveries) {
  const auto sys = cheshire(system_cfg(Variant::kFullCounter));
  auto& inj_s = sys->get<FaultInjector>("inj_s");
  const auto& tmu = sys->get<tmu::Tmu>("tmu");
  for (int round = 1; round <= 3; ++round) {
    inj_s.arm(FaultPoint::kBValidStuck);
    sys->get<TrafficGenerator>("idma").push(
        TxnDesc{true, 2, CheshireMap::kEthTxWindow, 15, 3, Burst::kIncr});
    ASSERT_TRUE(sys->sim().run_until(
        [&] {
          return tmu.recoveries() >= static_cast<std::uint64_t>(round);
        },
        5000))
        << "round " << round;
    inj_s.disarm();
    sys->sim().run(50);
  }
  EXPECT_EQ(sys->get<EthernetPeripheral>("ethernet").hw_resets(), 3u);
  EXPECT_EQ(
      sys->get<soc::CpuRecoveryStub>("cva6_irq_handler").irqs_handled(), 3u);
}

TEST(Cheshire, DmaEngineMovesDramToEthernetThroughTmu) {
  TmuConfig cfg = system_cfg(Variant::kFullCounter);
  cfg.adaptive.enabled = true;
  const auto sys = cheshire(cfg);
  auto& dma = sys->get<soc::IdmaEngine>("dma_engine");
  auto& dram = sys->get<axi::MemorySubordinate>("dram");
  // Seed DRAM with a frame, then DMA it into the Ethernet TX window.
  for (int b = 0; b < 32; ++b) {
    for (int i = 0; i < 8; ++i) {
      dram.poke(CheshireMap::kDramBase + 8 * b + i,
                static_cast<std::uint8_t>(b + i));
    }
  }
  dma.submit({CheshireMap::kDramBase, CheshireMap::kEthTxWindow, 32});
  ASSERT_TRUE(
      sys->sim().run_until([&] { return dma.descriptors_done() >= 1; }, 5000));
  EXPECT_FALSE(sys->get<tmu::Tmu>("tmu").any_fault());
  const auto& ethernet = sys->get<EthernetPeripheral>("ethernet");
  ASSERT_TRUE(
      sys->sim().run_until([&] { return ethernet.frames_txed() >= 32; }, 2000));
  EXPECT_EQ(dma.beats_moved(), 32u);
  EXPECT_EQ(dma.error_responses(), 0u);
}

TEST(Cheshire, LlcAcceleratesRepeatedDramReads) {
  TmuConfig cfg = system_cfg(Variant::kFullCounter);
  cfg.adaptive.enabled = true;
  const auto sys = cheshire(cfg);
  auto& cva6_0 = sys->get<TrafficGenerator>("cva6_0");
  // Rounds issued back-to-back but drained between rounds, so the
  // second and third passes find the lines allocated.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) {
      cva6_0.push(TxnDesc{false, 0, CheshireMap::kDramBase + i * 0x40, 7, 3,
                          Burst::kIncr});
    }
    ASSERT_TRUE(sys->sim().run_until(
        [&] {
          return cva6_0.completed() >=
                 static_cast<std::size_t>(4 * (round + 1));
        },
        8000));
  }
  const auto& llc = sys->get<soc::LastLevelCache>("llc");
  EXPECT_GT(llc.hits(), 0u);
  EXPECT_GT(llc.misses(), 0u);
  EXPECT_EQ(cva6_0.data_mismatches(), 0u);
}

TEST(Cheshire, DmaEngineSurvivesEthernetFaultAndRecovery) {
  TmuConfig cfg = system_cfg(Variant::kFullCounter);
  cfg.adaptive.enabled = true;
  const auto sys = cheshire(cfg);
  auto& inj_s = sys->get<FaultInjector>("inj_s");
  auto& dma = sys->get<soc::IdmaEngine>("dma_engine");
  const auto& tmu = sys->get<tmu::Tmu>("tmu");
  inj_s.arm(FaultPoint::kBValidStuck);
  dma.submit({CheshireMap::kDramBase, CheshireMap::kEthTxWindow, 16});
  ASSERT_TRUE(sys->sim().run_until([&] { return tmu.any_fault(); }, 5000));
  inj_s.disarm();
  // The aborted write chunk gets SLVERR; the engine counts it and keeps
  // going after recovery.
  ASSERT_TRUE(
      sys->sim().run_until([&] { return dma.descriptors_done() >= 1; }, 8000));
  EXPECT_GE(dma.error_responses(), 1u);
  // The recovery handshake may still be draining when the (aborted)
  // descriptor retires; wait for it separately.
  ASSERT_TRUE(
      sys->sim().run_until([&] { return tmu.recoveries() >= 1; }, 2000));
}

}  // namespace
