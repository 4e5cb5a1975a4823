// The recovery loop under tick gating: idle with nothing to claim, the
// CPU recovery stub sleeps, and the PLIC wakes it when a source latches.
// A stub registered before the PLIC ticks before the latch at the
// latching edge, so a wake that came from the interrupt wire alone would
// let it sleep through the latch. The IP-level fault testbench with the
// PLIC and the stub registered in either order runs in lockstep against
// the full sweep through two guard timeouts and their recoveries, in
// run(n) chunks: the idle stretches between the interrupts end in the
// quiescence jump.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "axi/link.hpp"
#include "axi/memory.hpp"
#include "axi/traffic_gen.hpp"
#include "fault/injector.hpp"
#include "sim/kernel.hpp"
#include "sim/state.hpp"
#include "soc/cpu_stub.hpp"
#include "soc/irq.hpp"
#include "soc/reset_unit.hpp"
#include "state_bytes.hpp"
#include "tmu/tmu.hpp"

namespace {

using sim::sched::SchedPolicy;

constexpr std::uint32_t kHandlerLatency = 20;

tmu::TmuConfig guard_config() {
  tmu::TmuConfig cfg;
  cfg.variant = tmu::Variant::kTinyCounter;
  cfg.tc_total_budget = 120;
  cfg.prescaler_step = 4;
  return cfg;
}

// gen -> TMU -> sub injector -> memory, the guard's reset unit, and the
// recovery loop: the guard's interrupt is the PLIC's only source.
struct IrqNet {
  axi::Link l_gen, l_sub, l_mem;
  axi::TrafficGenerator gen{"gen", l_gen, 5};
  tmu::Tmu tmu{"tmu", l_gen, l_sub, guard_config()};
  fault::FaultInjector inj{"inj", l_sub, l_mem};
  axi::MemorySubordinate mem{"mem", l_mem};
  soc::ResetUnit rst{"rst", tmu.reset_req, tmu.reset_ack,
                     [this] { mem.hw_reset(); }};
  soc::IrqController plic{"plic"};
  soc::CpuRecoveryStub cpu{"cpu", plic, {&tmu}, kHandlerLatency};
  sim::Simulator s;

  IrqNet(SchedPolicy policy, bool stub_first) : s(policy) {
    plic.add_source(tmu.irq);
    s.add(gen);
    s.add(tmu);
    s.add(inj);
    s.add(mem);
    s.add(rst);
    if (stub_first) s.add(cpu);
    s.add(plic);
    if (!stub_first) s.add(cpu);
    s.reset();
  }
};

bool is_asleep(const sim::Simulator& s, const std::string& name) {
  for (const sim::sched::ModuleProfile& mp : s.sched_profile().modules) {
    if (mp.name == name) return mp.asleep;
  }
  ADD_FAILURE() << "no module named " << name;
  return false;
}

axi::TxnDesc read_txn(axi::Addr addr) {
  axi::TxnDesc d;
  d.is_write = false;
  d.id = 1;
  d.addr = addr;
  d.len = 3;
  return d;
}

// One netlist under the full sweep (the reference) and one tick-gated.
struct IrqTwin {
  IrqNet ref;
  IrqNet dut;

  explicit IrqTwin(bool stub_first)
      : ref(SchedPolicy::kFullSweep, stub_first),
        dut(SchedPolicy::kEventDriven, stub_first) {}

  template <typename Fn>
  void both(Fn&& fn) {
    fn(ref);
    fn(dut);
  }

  void expect_equal(const std::string& at) {
    ASSERT_EQ(ref.s.cycle(), dut.s.cycle()) << at;
    for (const auto& [r, d] : {std::pair{&ref.l_gen, &dut.l_gen},
                               std::pair{&ref.l_sub, &dut.l_sub},
                               std::pair{&ref.l_mem, &dut.l_mem}}) {
      EXPECT_TRUE(r->req.read() == d->req.read()) << "req diverged " << at;
      EXPECT_TRUE(r->rsp.read() == d->rsp.read()) << "rsp diverged " << at;
    }
    for (std::size_t i = 0; i < ref.s.modules().size(); ++i) {
      EXPECT_EQ(state_bytes::state_of(*ref.s.modules()[i]),
                state_bytes::state_of(*dut.s.modules()[i]))
          << ref.s.modules()[i]->name() << " diverged " << at;
    }
  }

  void run(std::uint64_t n) {
    ref.s.run(n);
    dut.s.run(n);
    expect_equal("after run(" + std::to_string(n) + ") at cycle " +
                 std::to_string(ref.s.cycle()));
  }

  // Runs both sides until `done` holds and returns the cycle it first
  // held at, which must be the same on both.
  template <typename Pred>
  std::uint64_t run_until(Pred done, std::uint64_t max_cycles) {
    EXPECT_TRUE(ref.s.run_until([&] { return done(ref); }, max_cycles));
    EXPECT_TRUE(dut.s.run_until([&] { return done(dut); }, max_cycles));
    expect_equal("at cycle " + std::to_string(ref.s.cycle()));
    return ref.s.cycle();
  }
};

TEST(IrqWake, PlicWakesTheSleepingStubInEitherOrder) {
  for (const bool stub_first : {true, false}) {
    SCOPED_TRACE(stub_first ? "stub registered before the PLIC"
                            : "stub registered after the PLIC");
    IrqTwin t(stub_first);
    t.run(300);
    t.run(77);
    ASSERT_TRUE(is_asleep(t.dut.s, "cpu"));
    ASSERT_TRUE(is_asleep(t.dut.s, "plic"));

    for (std::uint64_t round = 0; round < 2; ++round) {
      SCOPED_TRACE("interrupt " + std::to_string(round));
      t.both([&](IrqNet& n) {
        n.inj.arm(fault::FaultPoint::kArReadyStuck, n.s.cycle());
        n.gen.push(read_txn(0x200 + 0x100 * round));
      });
      const std::uint64_t handled = t.ref.cpu.irqs_handled();
      const std::uint64_t raised =
          t.run_until([](IrqNet& n) { return n.tmu.irq.read(); }, 2000);
      // The handler completes kHandlerLatency edges after its claim.
      const std::uint64_t claimed =
          t.run_until(
              [&](IrqNet& n) { return n.cpu.irqs_handled() > handled; },
              kHandlerLatency + 10) -
          kHandlerLatency;
      // The PLIC latches at the edge after the guard raised its line; the
      // stub claims at that edge when it ticks after the PLIC, and at the
      // next when it ticks before.
      EXPECT_EQ(claimed - raised, stub_first ? 2u : 1u);
      if (::testing::Test::HasFailure()) return;

      // Recovery: the reset, the aborted read, and back to idle.
      t.both([](IrqNet& n) { n.inj.disarm(); });
      for (const std::uint64_t n : {1ull, 5ull, 13ull, 40ull, 200ull, 900ull}) {
        t.run(n);
        if (::testing::Test::HasFailure()) return;
      }
      // One guard timeout, one claim: the handler that cleared the line
      // and completed its claim never runs again for the same fault.
      EXPECT_EQ(t.ref.cpu.irqs_handled(), t.dut.cpu.irqs_handled());
      EXPECT_EQ(t.ref.cpu.faults_read(), t.dut.cpu.faults_read());
      EXPECT_EQ(t.ref.cpu.irqs_handled(), round + 1);
      EXPECT_EQ(t.ref.cpu.faults_read(), round + 1);
      EXPECT_GE(t.ref.tmu.recoveries(), round + 1);
      EXPECT_TRUE(is_asleep(t.dut.s, "cpu"));
    }
    EXPECT_EQ(t.ref.rst.resets_performed(), t.dut.rst.resets_performed());
  }
}

}  // namespace
