// Remaining-surface coverage: logger levels, wire change-epoch
// semantics, Ethernet MMIO counters read over the bus, multi-frame
// loopback, and TMU behaviour when disabled/re-enabled at runtime.

#include <gtest/gtest.h>

#include <sstream>

#include "axi/link.hpp"
#include "axi/memory.hpp"
#include "axi/traffic_gen.hpp"
#include "fault/injector.hpp"
#include "sim/kernel.hpp"
#include "sim/logger.hpp"
#include "sim/wire.hpp"
#include "soc/ethernet.hpp"
#include "soc/reset_unit.hpp"
#include "tmu/regs.hpp"
#include "tmu/tmu.hpp"

namespace {

using namespace axi;

TEST(WireEpoch, OnlyRealChangesBumpEpoch) {
  sim::Wire<int> w;
  const auto e0 = sim::ambient_epoch();
  w.write(0);  // same value: no bump
  EXPECT_EQ(sim::ambient_epoch(), e0);
  w.write(5);
  EXPECT_EQ(sim::ambient_epoch(), e0 + 1);
  w.write(5);
  EXPECT_EQ(sim::ambient_epoch(), e0 + 1);
  // force() also bumps only on an actual change: reset storms forcing
  // already-default values must not invalidate unrelated simulators.
  w.force(5);
  EXPECT_EQ(sim::ambient_epoch(), e0 + 1);
  w.force(6);
  EXPECT_EQ(sim::ambient_epoch(), e0 + 2);
}

TEST(WireEpoch, StructValuesCompareDeep) {
  sim::Wire<AxiReq> w;
  AxiReq q{};
  const auto e0 = sim::ambient_epoch();
  w.write(q);  // default == default: no change
  EXPECT_EQ(sim::ambient_epoch(), e0);
  q.aw_valid = true;
  w.write(q);
  EXPECT_EQ(sim::ambient_epoch(), e0 + 1);
}

TEST(Logger, LevelGateWorks) {
  const sim::LogLevel saved = sim::global_log_level();
  sim::global_log_level() = sim::LogLevel::kError;
  // Below the gate: nothing should be emitted (visually verified by the
  // absence of output; functionally the LogLine is disabled).
  sim::log(sim::LogLevel::kDebug, "test", 0) << "invisible";
  sim::global_log_level() = sim::LogLevel::kOff;
  sim::log(sim::LogLevel::kError, "test", 0) << "also invisible";
  sim::global_log_level() = saved;
  SUCCEED();
}

TEST(EthernetMmio, CountersReadableOverBus) {
  Link link;
  TrafficGenerator gen("gen", link);
  soc::EthernetPeripheral eth("eth", link);
  sim::Simulator s;
  s.add(gen);
  s.add(eth);
  s.reset();
  // Send a frame, wait for drain, then read the beats-transmitted
  // counter at MMIO offset 0x10.
  gen.push(TxnDesc{true, 0, 0x1000, 7, 3, Burst::kIncr});
  ASSERT_TRUE(s.run_until([&] { return eth.frames_txed() >= 8; }, 500));
  gen.push(TxnDesc{false, 0, 0x0010, 0, 3, Burst::kIncr});
  ASSERT_TRUE(s.run_until([&] { return gen.completed() >= 2; }, 200));
  // The MMIO read returns a counter, not pattern data; pattern checking
  // skipped it because the read landed in completed records:
  EXPECT_EQ(gen.records()[1].resp, Resp::kOkay);
  // Reset-count register at 0x20.
  eth.hw_reset();
  s.run(2);
  gen.push(TxnDesc{false, 0, 0x0020, 0, 3, Burst::kIncr});
  ASSERT_TRUE(s.run_until([&] { return gen.completed() >= 3; }, 200));
  EXPECT_EQ(eth.hw_resets(), 1u);
}

TEST(EthernetLoopback, MultipleFramesRoundTrip) {
  Link link;
  TrafficGenerator gen("gen", link);
  soc::EthernetConfig cfg;
  cfg.drain_every = 2;
  soc::EthernetPeripheral eth("eth", link, cfg);
  sim::Simulator s;
  s.add(gen);
  s.add(eth);
  s.reset();
  for (int f = 0; f < 3; ++f) {
    gen.push(TxnDesc{true, 0, 0x1000, 15, 3, Burst::kIncr});
  }
  ASSERT_TRUE(s.run_until([&] { return eth.frames_txed() >= 48; }, 2000));
  EXPECT_EQ(eth.writes_done(), 3u);
  EXPECT_EQ(eth.rx_fifo_level(), 48u);
}

TEST(TmuRuntime, DisableMidRunStopsMonitoringReEnableResumes) {
  Link l_gen, l_tmu_sub, l_mem;
  TrafficGenerator gen("gen", l_gen);
  tmu::TmuConfig cfg;
  cfg.adaptive.enabled = true;
  tmu::Tmu monitor("tmu", l_gen, l_tmu_sub, cfg);
  fault::FaultInjector inj("inj", l_tmu_sub, l_mem);
  MemorySubordinate mem("mem", l_mem);
  soc::ResetUnit rst("rst", monitor.reset_req, monitor.reset_ack,
                     [&] { mem.hw_reset(); });
  sim::Simulator s;
  s.add(gen);
  s.add(monitor);
  s.add(inj);
  s.add(mem);
  s.add(rst);
  s.reset();

  // Healthy write with monitoring on.
  gen.push(TxnDesc{true, 0, 0x100, 0, 3, Burst::kIncr});
  ASSERT_TRUE(s.run_until([&] { return gen.completed() >= 1; }, 300));

  // Disable over the register file; a stall now goes unnoticed but the
  // datapath keeps working when the fault clears.
  monitor.write_reg(tmu::regs::kCtrl, 0b1110);  // enable=0
  inj.arm(fault::FaultPoint::kBValidStuck);
  gen.push(TxnDesc{true, 0, 0x200, 0, 3, Burst::kIncr});
  s.run(400);
  EXPECT_FALSE(monitor.any_fault());
  inj.disarm();
  ASSERT_TRUE(s.run_until([&] { return gen.completed() >= 2; }, 300));

  // Re-enable: monitoring is live again.
  monitor.write_reg(tmu::regs::kCtrl, 0b1111);
  inj.arm(fault::FaultPoint::kBValidStuck);
  gen.push(TxnDesc{true, 0, 0x300, 0, 3, Burst::kIncr});
  ASSERT_TRUE(s.run_until([&] { return monitor.any_fault(); }, 500));
}

TEST(TmuRuntime, FaultDescribeIsHumanReadable) {
  tmu::FaultRecord f;
  f.cycle = 42;
  f.is_write = false;
  f.kind = tmu::FaultKind::kTimeout;
  f.phase_valid = true;
  f.phase = static_cast<std::uint8_t>(tmu::ReadPhase::kArRdyRVld);
  f.id = 3;
  f.addr = 0xBEEF;
  f.elapsed = 20;
  f.budget = 20;
  const std::string d = f.describe();
  EXPECT_NE(d.find("RD"), std::string::npos);
  EXPECT_NE(d.find("TIMEOUT"), std::string::npos);
  EXPECT_NE(d.find("ARRDY_RVLD"), std::string::npos);
  EXPECT_NE(d.find("beef"), std::string::npos);
  EXPECT_NE(d.find("20/20"), std::string::npos);
}

}  // namespace
