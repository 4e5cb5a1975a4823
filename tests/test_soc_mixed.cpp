// Mixed-criticality system tests: the Cheshire model carries an Fc-class
// TMU on the Ethernet endpoint and a prescaled Tc TMU on the generic
// peripheral (§IV: "mixing Tiny-Counter and Full-Counter monitors
// within the same SoC").

#include <gtest/gtest.h>

#include <memory>

#include "axi/traffic_gen.hpp"
#include "fault/injector.hpp"
#include "soc/builder.hpp"
#include "soc/cpu_stub.hpp"
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
using tmu::TmuConfig;
using tmu::Variant;

TmuConfig eth_cfg() {
  TmuConfig cfg;
  cfg.variant = Variant::kFullCounter;
  cfg.adaptive.enabled = true;
  return cfg;
}

/// The Cheshire SoC and the blocks these tests drive, by desc name.
struct Mixed {
  std::unique_ptr<soc::Soc> sys =
      soc::SocBuilder::build(soc::cheshire_desc(eth_cfg()));
  sim::Simulator& sim = sys->sim();
  TrafficGenerator& cva6_0 = sys->get<TrafficGenerator>("cva6_0");
  TrafficGenerator& cva6_1 = sys->get<TrafficGenerator>("cva6_1");
  TrafficGenerator& idma = sys->get<TrafficGenerator>("idma");
  FaultInjector& inj_s = sys->get<FaultInjector>("inj_s");
  FaultInjector& periph_inj = sys->get<FaultInjector>("periph_inj");
  tmu::Tmu& tmu = sys->get<tmu::Tmu>("tmu");
  tmu::Tmu& periph_tmu = sys->get<tmu::Tmu>("periph_tmu");
  soc::CpuRecoveryStub& cpu =
      sys->get<soc::CpuRecoveryStub>("cva6_irq_handler");
  soc::ResetUnit& periph_rst = sys->get<soc::ResetUnit>("periph_reset_unit");
};

TEST(MixedCriticality, PeriphTmuIsTinyCounterWithPrescaler) {
  Mixed m;
  const TmuConfig& c = m.periph_tmu.config();
  EXPECT_EQ(c.variant, Variant::kTinyCounter);
  EXPECT_GT(c.prescaler_step, 1u);
  EXPECT_TRUE(c.sticky_bit);
}

TEST(MixedCriticality, HealthyTrafficThroughBothMonitors) {
  Mixed m;
  for (int i = 0; i < 4; ++i) {
    m.cva6_0.push(TxnDesc{true, 0, CheshireMap::kPeriphBase + i * 0x100, 7,
                          3, Burst::kIncr});
    m.cva6_1.push(
        TxnDesc{true, 1, CheshireMap::kEthTxWindow, 15, 3, Burst::kIncr});
  }
  ASSERT_TRUE(m.sim.run_until(
      [&] { return m.cva6_0.completed() >= 4 && m.cva6_1.completed() >= 4; },
      5000));
  EXPECT_FALSE(m.tmu.any_fault());
  EXPECT_FALSE(m.periph_tmu.any_fault());
}

TEST(MixedCriticality, PeripheralStallCaughtByTcMonitor) {
  Mixed m;
  m.periph_inj.arm(FaultPoint::kBValidStuck);
  m.cva6_0.push(
      TxnDesc{true, 0, CheshireMap::kPeriphBase + 0x100, 3, 3, Burst::kIncr});
  ASSERT_TRUE(m.sim.run_until([&] { return m.periph_tmu.any_fault(); }, 3000));
  const auto& f = m.periph_tmu.fault_log().front();
  EXPECT_FALSE(f.phase_valid);  // Tc: transaction-level only
  // Recovery via the peripheral's own reset unit.
  ASSERT_TRUE(
      m.sim.run_until([&] { return m.periph_tmu.recoveries() >= 1; }, 2000));
  EXPECT_EQ(m.periph_rst.resets_performed(), 1u);
  // The Ethernet monitor saw nothing.
  EXPECT_FALSE(m.tmu.any_fault());
}

TEST(MixedCriticality, ConcurrentFaultsBothRecovered) {
  Mixed m;
  m.periph_inj.arm(FaultPoint::kBValidStuck);
  m.inj_s.arm(FaultPoint::kAwReadyStuck);
  m.cva6_0.push(
      TxnDesc{true, 0, CheshireMap::kPeriphBase + 0x100, 3, 3, Burst::kIncr});
  m.idma.push(
      TxnDesc{true, 2, CheshireMap::kEthTxWindow, 15, 3, Burst::kIncr});
  ASSERT_TRUE(m.sim.run_until(
      [&] { return m.tmu.any_fault() && m.periph_tmu.any_fault(); }, 4000));
  // The hardware reset "repairs" both devices (otherwise an unaccepted
  // AW legitimately retries and times out again after every recovery).
  m.inj_s.disarm();
  m.periph_inj.disarm();
  ASSERT_TRUE(m.sim.run_until(
      [&] {
        return m.tmu.recoveries() >= 1 && m.periph_tmu.recoveries() >= 1 &&
               m.cpu.irqs_handled() >= 2;
      },
      4000));
  EXPECT_GE(m.sys->get<soc::EthernetPeripheral>("ethernet").hw_resets(), 1u);
  EXPECT_GE(m.periph_rst.resets_performed(), 1u);
  // After the repair, the retried iDMA write completes.
  ASSERT_TRUE(m.sim.run_until([&] { return m.idma.completed() >= 1; }, 4000));
}

TEST(MixedCriticality, CpuHandlerServicesBothSources) {
  Mixed m;
  m.periph_inj.arm(FaultPoint::kBValidStuck);
  m.cva6_0.push(
      TxnDesc{true, 0, CheshireMap::kPeriphBase + 0x100, 0, 3, Burst::kIncr});
  ASSERT_TRUE(m.sim.run_until([&] { return m.cpu.irqs_handled() >= 1; }, 4000));
  EXPECT_GE(m.cpu.faults_read(), 1u);
  m.sim.run(2);
  EXPECT_FALSE(m.periph_tmu.irq.read());
}

TEST(MixedCriticality, DetectionGranularityDiffers) {
  // Same stall on both endpoints: Fc pinpoints a phase, Tc reports at
  // the (coarser, prescaled) transaction budget.
  Mixed m;
  m.inj_s.arm(FaultPoint::kBValidStuck);
  m.periph_inj.arm(FaultPoint::kBValidStuck);
  m.idma.push(
      TxnDesc{true, 2, CheshireMap::kEthTxWindow, 3, 3, Burst::kIncr});
  m.cva6_0.push(
      TxnDesc{true, 0, CheshireMap::kPeriphBase + 0x100, 3, 3, Burst::kIncr});
  ASSERT_TRUE(m.sim.run_until(
      [&] { return m.tmu.any_fault() && m.periph_tmu.any_fault(); }, 5000));
  EXPECT_TRUE(m.tmu.fault_log().front().phase_valid);
  EXPECT_FALSE(m.periph_tmu.fault_log().front().phase_valid);
  EXPECT_LT(m.tmu.fault_log().front().cycle,
            m.periph_tmu.fault_log().front().cycle);
}

}  // namespace
