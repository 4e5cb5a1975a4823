// Epoch-isolation regressions for the per-simulator change-epoch
// context (sim/context.hpp): independent Simulators must not invalidate
// each other's settled-state caches — the prerequisite for running
// campaigns on a thread pool — while external (ambient) writes still
// conservatively invalidate every simulator on the thread.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/wire.hpp"

namespace {

// Flop -> +1 -> flop counter, as in test_sim_settle.
class DFlop : public sim::Module {
 public:
  DFlop(std::string name, sim::Wire<int>& d, sim::Wire<int>& q)
      : sim::Module(std::move(name)), d_(d), q_(q) {}
  void eval() override { q_.write(state_); }
  void tick() override { state_ = d_.read(); }
  void reset() override { state_ = 0; }

 private:
  sim::Wire<int>& d_;
  sim::Wire<int>& q_;
  int state_ = 0;
};

class Inc : public sim::Module {
 public:
  Inc(std::string name, sim::Wire<int>& in, sim::Wire<int>& out)
      : sim::Module(std::move(name)), in_(in), out_(out) {}
  void eval() override { out_.write(in_.read() + 1); }
  void visit_inputs(sim::InputVisitor& v) override { v.input(in_); }

 private:
  sim::Wire<int>& in_;
  sim::Wire<int>& out_;
};

// A module with a testbench knob that routes through the precise,
// module-bound notify_state_change().
class Gain : public sim::Module {
 public:
  Gain(std::string name, sim::Wire<int>& in, sim::Wire<int>& out)
      : sim::Module(std::move(name)), in_(in), out_(out) {}
  void eval() override { out_.write(in_.read() * gain_); }
  void visit_inputs(sim::InputVisitor& v) override { v.input(in_); }
  void set_gain(int g) {
    gain_ = g;
    notify_state_change();
  }

 private:
  sim::Wire<int>& in_;
  sim::Wire<int>& out_;
  int gain_ = 1;
};

// A tick-only module whose tick() makes one free, unattributed
// sim::notify_state_change() call when poked.
class Poker : public sim::Module {
 public:
  explicit Poker(std::string name) : sim::Module(std::move(name)) {}
  bool is_combinational() const override { return false; }
  void tick() override {
    if (poke) {
      poke = false;
      sim::notify_state_change();
    }
  }

  bool poke = false;
};

struct Counter {
  sim::Wire<int> q, d;
  DFlop flop{"flop", d, q};
  Inc inc{"inc", q, d};
  sim::Simulator s;

  explicit Counter(
      sim::sched::SchedPolicy p = sim::sched::SchedPolicy::kEventDriven)
      : s(p) {
    s.add(inc);
    s.add(flop);
    s.reset();
  }
};

TEST(SimEpoch, SteppingOneSimulatorKeepsTheOtherSettled) {
  Counter a, b;
  const std::uint64_t b_passes = b.s.eval_passes();
  // Drive A hard; every wire write during A's settle is attributed to
  // A's context, so B's cache must stay valid...
  a.s.run(50);
  b.s.settle();
  EXPECT_EQ(b.s.eval_passes(), b_passes);
  // ...and symmetrically.
  const std::uint64_t a_passes = a.s.eval_passes();
  b.s.run(50);
  a.s.settle();
  EXPECT_EQ(a.s.eval_passes(), a_passes);
  EXPECT_EQ(a.q.read(), 50);
  EXPECT_EQ(b.q.read(), 50);
}

TEST(SimEpoch, InterleavedSteppingStaysSingleConvergence) {
  // The regression the global epoch caused: interleaving two simulators
  // forced a full re-settle per step. Per-context tracking keeps both on
  // the pinned per-cycle budget: one worklist drain of 3 module evals
  // under the event-driven default.
  Counter a, b;
  const std::uint64_t a0 = a.s.eval_passes();
  const std::uint64_t b0 = b.s.eval_passes();
  const std::uint64_t ae0 = a.s.module_evals();
  const std::uint64_t be0 = b.s.module_evals();
  for (int i = 0; i < 10; ++i) {
    a.s.step();
    b.s.step();
  }
  EXPECT_EQ(a.s.eval_passes() - a0, 10u);
  EXPECT_EQ(b.s.eval_passes() - b0, 10u);
  EXPECT_EQ(a.s.module_evals() - ae0, 30u);
  EXPECT_EQ(b.s.module_evals() - be0, 30u);
}

TEST(SimEpoch, InterleavedSteppingStaysSingleConvergenceFullSweep) {
  // Same pin under the legacy scheduler: 3 full passes per cycle.
  Counter a(sim::sched::SchedPolicy::kFullSweep);
  Counter b(sim::sched::SchedPolicy::kFullSweep);
  const std::uint64_t a0 = a.s.eval_passes();
  const std::uint64_t b0 = b.s.eval_passes();
  for (int i = 0; i < 10; ++i) {
    a.s.step();
    b.s.step();
  }
  EXPECT_EQ(a.s.eval_passes() - a0, 30u);
  EXPECT_EQ(b.s.eval_passes() - b0, 30u);
}

TEST(SimEpoch, AmbientWireWriteInvalidatesAllSimulatorsOnThread) {
  // A write outside any simulator scope cannot be attributed precisely;
  // it must conservatively invalidate every simulator on the thread.
  Counter a, b;
  a.s.step();
  b.s.step();
  const std::uint64_t a0 = a.s.eval_passes();
  const std::uint64_t b0 = b.s.eval_passes();
  a.q.force(41);  // testbench write, no simulator active
  a.s.settle();
  b.s.settle();
  EXPECT_GT(a.s.eval_passes(), a0);  // directly affected
  EXPECT_GT(b.s.eval_passes(), b0);  // conservatively re-settled
}

TEST(SimEpoch, UnattributedNotifyInTickResettlesOnlyItsSimulator) {
  // A free notify_state_change() from a module's tick() names neither a
  // wire nor a module: the simulator ticking it re-settles everything at
  // its next settle, and a simulator beside it on the thread stays
  // settled.
  Counter a, b;
  Poker poker("poker");
  a.s.add(poker);
  a.s.step();
  b.s.step();
  const std::uint64_t full0 = a.s.sched_stats().full_invalidations;
  a.s.step();  // an edge without the call invalidates nothing wholesale
  EXPECT_EQ(a.s.sched_stats().full_invalidations, full0);
  const std::uint64_t b_full = b.s.sched_stats().full_invalidations;
  const std::uint64_t b_passes = b.s.eval_passes();
  const std::uint64_t b_evals = b.s.module_evals();
  poker.poke = true;
  a.s.step();  // the post-edge settle is the next settle
  EXPECT_EQ(a.s.sched_stats().full_invalidations, full0 + 1);
  b.s.settle();
  EXPECT_EQ(b.s.sched_stats().full_invalidations, b_full);
  EXPECT_EQ(b.s.eval_passes(), b_passes);
  EXPECT_EQ(b.s.module_evals(), b_evals);
}

TEST(SimEpoch, CycleCallbackWritesInvalidateOtherSimulators) {
  // on_cycle callbacks are testbench code; a callback on sim A that
  // writes a stimulus wire read by sim B must land on the ambient
  // context so B re-settles (co-simulation coupling).
  sim::Wire<int> stim, echo;
  Gain g("g", stim, echo);
  sim::Simulator b;
  b.add(g);
  b.reset();

  Counter a;
  a.s.on_cycle([&](std::uint64_t) { stim.write(a.q.read()); });
  a.s.run(3);  // callback writes stim = 0, 1, 2
  b.settle();
  EXPECT_EQ(echo.read(), 2);
}

TEST(SimEpoch, BoundModuleNotifyInvalidatesOnlyItsSimulator) {
  sim::Wire<int> in_a, out_a, in_b, out_b;
  Gain ga("ga", in_a, out_a);
  Gain gb("gb", in_b, out_b);
  sim::Simulator sa, sb;
  sa.add(ga);
  sb.add(gb);
  sa.reset();
  sb.reset();
  in_a.write(3);
  in_b.write(3);
  sa.settle();
  sb.settle();
  const std::uint64_t a0 = sa.eval_passes();
  const std::uint64_t b0 = sb.eval_passes();
  // set_gain() notifies through the module's bound context: precise.
  ga.set_gain(10);
  sa.settle();
  sb.settle();
  EXPECT_GT(sa.eval_passes(), a0);
  EXPECT_EQ(sb.eval_passes(), b0);
  EXPECT_EQ(out_a.read(), 30);
  EXPECT_EQ(out_b.read(), 3);
}

TEST(SimEpoch, ContextBindingSetByAdd) {
  sim::Wire<int> in, out;
  Gain g("g", in, out);
  EXPECT_EQ(g.context(), nullptr);
  sim::Simulator s;
  s.add(g);
  EXPECT_EQ(g.context(), &s.context());
}

TEST(SimEpoch, ModuleOutlivingSimulatorIsUnbound) {
  sim::Wire<int> in, out;
  Gain g("g", in, out);
  {
    sim::Simulator s;
    s.add(g);
    s.reset();
    EXPECT_EQ(g.context(), &s.context());
  }
  // The weak context binding expired with the simulator; notifications
  // fall back to the ambient context instead of dereferencing freed
  // memory.
  EXPECT_EQ(g.context(), nullptr);
  const std::uint64_t e0 = sim::ambient_epoch();
  g.set_gain(2);
  EXPECT_EQ(sim::ambient_epoch(), e0 + 1);
}

TEST(SimEpoch, TestLocalModuleMayDieBeforeSimulator) {
  // The opposite order (the baselines-fixture pattern): a module
  // registered for one test body dies before the Simulator. Destroying
  // the simulator afterwards must be safe — validated under ASan.
  sim::Simulator s;  // declared first: destroyed last
  sim::Wire<int> in, out;
  {
    Gain g("g", in, out);
    s.add(g);
    s.reset();
    in.write(2);
    s.settle();
    EXPECT_EQ(out.read(), 2);
  }  // g gone; s must not touch it during destruction
}

TEST(SimEpoch, RebindToSecondSimulatorSurvivesFirstsDestruction) {
  sim::Wire<int> in, out;
  Gain g("g", in, out);
  sim::Simulator s2;
  {
    sim::Simulator s1;
    s1.add(g);
    s2.add(g);  // latest wins
    EXPECT_EQ(g.context(), &s2.context());
  }
  // s1's destruction must not disturb the newer binding.
  EXPECT_EQ(g.context(), &s2.context());
}

TEST(SimEpoch, SimulatorsOnSeparateThreadsRunIndependently) {
  // One simulator per thread, stepping concurrently: per-thread ambient
  // contexts and per-simulator contexts mean no shared mutable state.
  // Run under TSan to prove race-freedom; assert behavior here.
  constexpr int kThreads = 4;
  constexpr int kCycles = 200;
  std::vector<int> finals(kThreads, -1);
  std::vector<std::uint64_t> passes(kThreads, 0);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([t, &finals, &passes] {
      Counter c;
      const std::uint64_t p0 = c.s.module_evals();
      c.s.run(kCycles);
      finals[static_cast<std::size_t>(t)] = c.q.read();
      passes[static_cast<std::size_t>(t)] = c.s.module_evals() - p0;
    });
  }
  for (auto& th : pool) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(finals[static_cast<std::size_t>(t)], kCycles);
    // Single-settle invariant holds on every thread: one 3-eval drain
    // per cycle (event-driven default; the write-trace hook is
    // thread_local so concurrent drains share nothing).
    EXPECT_EQ(passes[static_cast<std::size_t>(t)],
              static_cast<std::uint64_t>(3 * kCycles));
  }
}

}  // namespace
