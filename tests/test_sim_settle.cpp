// Regression tests for the settle hot path under both scheduling
// policies: the kernel must run exactly one eval convergence per cycle
// on a settled netlist, the settled-state cache must be invalidated by
// everything that can change observable state (tick, reset, Wire::force,
// external writes, late module registration), and the event-driven
// scheduler must wake only declared readers, treat declarations as
// supersets, and name the offenders on divergence. A missing declaration
// surfaces as a lockstep divergence from the full sweep.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "sim/kernel.hpp"
#include "sim/wire.hpp"

namespace {

using sim::sched::SchedPolicy;

// A register that copies its input wire on every clock edge.
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

// Combinational +1.
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

// A pure combinational pass-through.
class PassThrough : public sim::Module {
 public:
  PassThrough(std::string name, sim::Wire<int>& in, sim::Wire<int>& out)
      : sim::Module(std::move(name)), in_(in), out_(out) {}
  void eval() override { out_.write(in_.read()); }
  void visit_inputs(sim::InputVisitor& v) override { v.input(in_); }

 private:
  sim::Wire<int>& in_;
  sim::Wire<int>& out_;
};

// A constant driver with a testbench knob routed through the precise,
// module-bound notify_state_change().
class Source : public sim::Module {
 public:
  Source(std::string name, sim::Wire<int>& out)
      : sim::Module(std::move(name)), out_(out) {}
  void eval() override { out_.write(value_); }
  void set_value(int v) {
    value_ = v;
    notify_state_change();
  }

 private:
  sim::Wire<int>& out_;
  int value_ = 0;
};

// out = sel ? b : a. Reads b only while sel != 0, but declares all three
// inputs: a declaration covers every path through eval().
class Mux : public sim::Module {
 public:
  Mux(std::string name, sim::Wire<int>& sel, sim::Wire<int>& a,
      sim::Wire<int>& b, sim::Wire<int>& out)
      : sim::Module(std::move(name)), sel_(sel), a_(a), b_(b), out_(out) {}
  void eval() override {
    out_.write(sel_.read() != 0 ? b_.read() : a_.read());
  }
  void visit_inputs(sim::InputVisitor& v) override {
    v.input(sel_);
    v.input(a_);
    v.input(b_);
  }

 private:
  sim::Wire<int>& sel_;
  sim::Wire<int>& a_;
  sim::Wire<int>& b_;
  sim::Wire<int>& out_;
};

// A stateless combinational copy whose clock edges never touch
// eval-relevant state, so only wire wakes re-evaluate it. `declare`
// false omits its input from visit_inputs: the bug a lockstep gate must
// catch.
class Follower : public sim::Module {
 public:
  Follower(std::string name, sim::Wire<int>& in, sim::Wire<int>& out,
           bool declare)
      : sim::Module(std::move(name)), in_(in), out_(out), declare_(declare) {}
  void eval() override { out_.write(in_.read()); }
  void tick() override { tick_evt_ = false; }
  void visit_inputs(sim::InputVisitor& v) override {
    if (declare_) v.input(in_);
  }

 private:
  sim::Wire<int>& in_;
  sim::Wire<int>& out_;
  bool declare_;
};

// Netlist under test: flop -> inc -> flop (a counter). With inc
// registered before flop, one post-edge convergence takes exactly 3
// full-sweep eval passes: one propagating the new register value to q,
// one rippling it through inc to d, and one confirming no change.
struct CounterFixture {
  sim::Wire<int> q, d;
  DFlop flop{"flop", d, q};
  Inc inc{"inc", q, d};
  sim::Simulator s;

  explicit CounterFixture(SchedPolicy p = SchedPolicy::kEventDriven) : s(p) {
    // Register in an order that requires settling (inc depends on flop).
    s.add(inc);
    s.add(flop);
    s.reset();
  }
};

// ------------------------------------------------------------------
// Policy-independent invariants, run under both schedulers. "Work done"
// is observed through module_evals(), which counts individual eval()
// calls in both modes.
// ------------------------------------------------------------------

class SimSettleBothPolicies : public ::testing::TestWithParam<SchedPolicy> {};

INSTANTIATE_TEST_SUITE_P(
    Policies, SimSettleBothPolicies,
    ::testing::Values(SchedPolicy::kFullSweep, SchedPolicy::kEventDriven),
    [](const ::testing::TestParamInfo<SchedPolicy>& info) {
      return std::string(sim::sched::to_string(info.param));
    });

TEST_P(SimSettleBothPolicies, SteadyStateCostIsConstantPerCycle) {
  CounterFixture f(GetParam());
  // reset() leaves the netlist settled, so each step() must pay only the
  // post-edge convergence, and every cycle pays the same amount.
  const std::uint64_t before = f.s.module_evals();
  f.s.step();
  const std::uint64_t per_cycle = f.s.module_evals() - before;
  EXPECT_GT(per_cycle, 0u);
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t p0 = f.s.module_evals();
    f.s.step();
    EXPECT_EQ(f.s.module_evals() - p0, per_cycle);
  }
}

TEST_P(SimSettleBothPolicies, SettleAfterStepIsFree) {
  CounterFixture f(GetParam());
  f.s.step();
  const std::uint64_t p0 = f.s.module_evals();
  f.s.settle();
  f.s.settle();
  EXPECT_EQ(f.s.module_evals(), p0);
}

TEST_P(SimSettleBothPolicies, BehaviorIdenticalCycleByCycle) {
  CounterFixture f(GetParam());
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(f.q.read(), i);
    EXPECT_EQ(f.d.read(), i + 1);
    f.s.step();
  }
  EXPECT_EQ(f.s.cycle(), 20u);
}

TEST_P(SimSettleBothPolicies, ResetInvalidatesSettledState) {
  CounterFixture f(GetParam());
  f.s.run(5);
  EXPECT_EQ(f.q.read(), 5);
  const std::uint64_t p0 = f.s.module_evals();
  f.s.reset();
  // reset() must re-settle even though no wire was written in between
  // (register state changed behind the epoch's back).
  EXPECT_GT(f.s.module_evals(), p0);
  EXPECT_EQ(f.q.read(), 0);
  EXPECT_EQ(f.d.read(), 1);
}

TEST_P(SimSettleBothPolicies, ForceInvalidatesSettledState) {
  CounterFixture f(GetParam());
  f.s.step();
  f.q.force(41);  // an actual change: bumps the write epoch
  const std::uint64_t p0 = f.s.module_evals();
  f.s.settle();
  EXPECT_GT(f.s.module_evals(), p0);
}

TEST_P(SimSettleBothPolicies, NoChangeForceKeepsFastPath) {
  CounterFixture f(GetParam());
  f.s.step();
  const std::uint64_t p0 = f.s.module_evals();
  f.q.force(f.q.read());  // same value: no epoch bump, cache stays valid
  f.s.settle();
  EXPECT_EQ(f.s.module_evals(), p0);
}

TEST_P(SimSettleBothPolicies, ExternalWireWriteInvalidatesSettledState) {
  sim::Wire<int> in, out;
  PassThrough pt("pt", in, out);
  sim::Simulator s(GetParam());
  s.add(pt);
  s.reset();
  in.write(7);  // value change bumps the ambient epoch: cache misses
  s.settle();
  EXPECT_EQ(out.read(), 7);
}

TEST_P(SimSettleBothPolicies, NoChangeExternalWriteKeepsFastPath) {
  sim::Wire<int> in, out;
  PassThrough pt("pt", in, out);
  sim::Simulator s(GetParam());
  s.add(pt);
  s.reset();
  const std::uint64_t p0 = s.module_evals();
  in.write(in.read());  // same value: no epoch bump, no state change
  s.settle();
  EXPECT_EQ(s.module_evals(), p0);
}

TEST_P(SimSettleBothPolicies, LateAddInvalidatesSettledState) {
  sim::Wire<int> in, mid, out;
  PassThrough a("a", in, mid);
  PassThrough b("b", mid, out);
  sim::Simulator s(GetParam());
  s.add(a);
  s.reset();
  in.write(3);
  s.settle();
  s.add(b);  // registered after settling: must be evaluated on next settle
  s.settle();
  EXPECT_EQ(out.read(), 3);
}

TEST_P(SimSettleBothPolicies, InvalidateSettleForcesReeval) {
  CounterFixture f(GetParam());
  f.s.step();
  const std::uint64_t p0 = f.s.module_evals();
  f.s.invalidate_settle();
  f.s.settle();
  EXPECT_GT(f.s.module_evals(), p0);
}

TEST_P(SimSettleBothPolicies, TickOnlyModulesAreSkippedDuringSettle) {
  // A module declaring is_combinational() == false must never be
  // eval()ed by either scheduler, while its tick() still runs.
  class TickOnly : public sim::Module {
   public:
    using sim::Module::Module;
    bool is_combinational() const override { return false; }
    void eval() override { ++evals; }
    void tick() override { ++ticks; }
    int evals = 0;
    int ticks = 0;
  };
  CounterFixture f(GetParam());
  TickOnly mon("mon");
  f.s.add(mon);
  f.s.reset();
  f.s.run(10);
  EXPECT_EQ(mon.evals, 0);
  EXPECT_EQ(mon.ticks, 10);
}

TEST_P(SimSettleBothPolicies, ConvergenceErrorNamesDirtyModules) {
  // u1 and u2 increment each other's input: a genuine combinational
  // loop. The error must carry module names for diagnosis.
  sim::Wire<int> w1, w2;
  Inc u1("u1_osc", w2, w1);
  Inc u2("u2_osc", w1, w2);
  sim::Simulator s(GetParam());
  s.add(u1);
  s.add(u2);
  try {
    s.settle();
    FAIL() << "expected ConvergenceError";
  } catch (const sim::ConvergenceError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("combinational loop"), std::string::npos) << msg;
    // The full sweep's diagnostic pass names every oscillating module;
    // the event drain reports the still-queued dirty set, which for an
    // alternating two-module loop holds at least one of them.
    if (GetParam() == SchedPolicy::kFullSweep) {
      EXPECT_NE(msg.find("u1_osc"), std::string::npos) << msg;
      EXPECT_NE(msg.find("u2_osc"), std::string::npos) << msg;
    } else {
      EXPECT_TRUE(msg.find("u1_osc") != std::string::npos ||
                  msg.find("u2_osc") != std::string::npos)
          << msg;
    }
  }
}

// ------------------------------------------------------------------
// Full-sweep-specific pins (the historical kernel semantics).
// ------------------------------------------------------------------

TEST(SimSettleFullSweep, ExactlyOneConvergencePerCycleWhenSettled) {
  CounterFixture f(SchedPolicy::kFullSweep);
  // Each step() pays only the post-edge convergence: 3 passes for this
  // netlist, with the leading settle elided.
  const std::uint64_t before = f.s.eval_passes();
  f.s.step();
  EXPECT_EQ(f.s.eval_passes() - before, 3u);
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t p0 = f.s.eval_passes();
    f.s.step();
    EXPECT_EQ(f.s.eval_passes() - p0, 3u);
  }
}

TEST(SimSettleFullSweep, RunUntilPaysOneConvergencePerCycle) {
  CounterFixture f(SchedPolicy::kFullSweep);
  const std::uint64_t p0 = f.s.eval_passes();
  EXPECT_TRUE(f.s.run_until([&] { return f.q.read() == 8; }, 100));
  // 8 cycles at 3 passes each; the per-iteration leading settles and the
  // predicate-recheck settles must all hit the fast path.
  EXPECT_EQ(f.s.eval_passes() - p0, 24u);
}

// ------------------------------------------------------------------
// Event-driven-specific pins: activity-proportional settle.
// ------------------------------------------------------------------

TEST(SimSettleEventDriven, PostEdgeDrainCostsOneEvalPlusToggledCones) {
  CounterFixture f;  // default policy is event-driven
  // Per cycle: mark-all after the edge evaluates {inc, flop} once (2
  // evals); flop's q change wakes inc (1 more); inc's d change wakes
  // nobody (d has no eval-phase readers — the flop samples it in tick).
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t e0 = f.s.module_evals();
    const std::uint64_t p0 = f.s.eval_passes();
    f.s.step();
    EXPECT_EQ(f.s.module_evals() - e0, 3u);
    EXPECT_EQ(f.s.eval_passes() - p0, 1u);  // one drain per cycle
  }
}

TEST(SimSettleEventDriven, WireWriteWakesOnlyReaderModules) {
  // chain: in -> a -> mid -> b -> out, plus an unrelated island
  // in2 -> c -> out2. One drain after a mark-all evaluates each module
  // exactly once: when a's eval changes mid, its reader b is still
  // pending in the FIFO (dedup keeps it queued once) and so picks up
  // the fresh value in its single eval. The island never re-evaluates.
  sim::Wire<int> in, mid, out, in2, out2;
  PassThrough a("a", in, mid);
  PassThrough b("b", mid, out);
  PassThrough c("c", in2, out2);
  sim::Simulator s;
  s.add(a);
  s.add(b);
  s.add(c);
  s.reset();
  const std::uint64_t e0 = s.module_evals();
  in.write(1);  // ambient: conservative mark-all, then precise wakeups
  s.settle();
  EXPECT_EQ(out.read(), 1);
  EXPECT_EQ(s.module_evals() - e0, 3u);  // a, b (fresh mid), c

  // The same stimulus under a full sweep pays two full passes.
  sim::Wire<int> fin, fmid, fout, fin2, fout2;
  PassThrough fa("a", fin, fmid);
  PassThrough fb("b", fmid, fout);
  PassThrough fc("c", fin2, fout2);
  sim::Simulator fs(SchedPolicy::kFullSweep);
  fs.add(fa);
  fs.add(fb);
  fs.add(fc);
  fs.reset();
  const std::uint64_t f0 = fs.module_evals();
  fin.write(1);
  fs.settle();
  EXPECT_EQ(fout.read(), 1);
  EXPECT_EQ(fs.module_evals() - f0, 6u);  // 2 passes x 3 modules
}

TEST(SimSettleEventDriven, NotifyReEvaluatesOnlyTheNotifiedCone) {
  // Two independent sources; poking one through its module-bound
  // notify_state_change() must re-evaluate exactly that module.
  sim::Wire<int> out_a, out_b;
  Source sa("sa", out_a);
  Source sb("sb", out_b);
  sim::Simulator s;
  s.add(sa);
  s.add(sb);
  s.reset();
  const std::uint64_t e0 = s.module_evals();
  sa.set_value(7);
  s.settle();
  EXPECT_EQ(out_a.read(), 7);
  EXPECT_EQ(out_b.read(), 0);
  EXPECT_EQ(s.module_evals() - e0, 1u);
}

TEST(SimSettleEventDriven, DeclaredSupersetCostsOneExtraEval) {
  // mux declares {sel, a, b} although it reads b only while sel != 0.
  // A change to b while sel == 0 wakes it for nothing: one extra eval,
  // output unchanged. Once sel flips, b's changes propagate with no
  // learning step.
  sim::Wire<int> sel, a, b, out;
  Source src("src", b);
  Mux mux("mux", sel, a, b, out);
  sim::Simulator s;
  s.add(src);
  s.add(mux);
  s.reset();

  std::uint64_t e0 = s.module_evals();
  src.set_value(7);
  s.settle();
  EXPECT_EQ(s.module_evals() - e0, 2u);  // src, then mux via b's fan-out
  EXPECT_EQ(out.read(), 0);

  sel.write(1);  // ambient write -> mark-all
  s.settle();
  EXPECT_EQ(out.read(), 7);

  e0 = s.module_evals();
  src.set_value(9);
  s.settle();
  EXPECT_EQ(out.read(), 9);
  EXPECT_EQ(s.module_evals() - e0, 2u);
}

TEST(SimSettleEventDriven, UndeclaredInputDivergesFromFullSweep) {
  // follow copies the counter's q. Stepped in lockstep against the full
  // sweep (the oracle of the equivalence gates), the declared copy
  // tracks it every cycle; the copy that omits q from visit_inputs is
  // never woken by q and diverges on the first edge that changes q.
  struct Net {
    sim::Wire<int> q, d, out;
    DFlop flop{"flop", d, q};
    Inc inc{"inc", q, d};
    Follower follow;
    sim::Simulator s;

    Net(SchedPolicy p, bool declare) : follow("follow", q, out, declare), s(p) {
      s.add(inc);
      s.add(flop);
      s.add(follow);
      s.reset();
    }
  };
  Net oracle(SchedPolicy::kFullSweep, /*declare=*/false);
  Net declared(SchedPolicy::kEventDriven, /*declare=*/true);
  Net omitted(SchedPolicy::kEventDriven, /*declare=*/false);
  // reset() evaluates every module once, so all three agree at cycle 0.
  EXPECT_EQ(omitted.out.read(), oracle.out.read());

  int first_divergence = -1;
  for (int cycle = 1; cycle <= 5; ++cycle) {
    oracle.s.step();
    declared.s.step();
    omitted.s.step();
    EXPECT_EQ(declared.out.read(), oracle.out.read()) << "cycle " << cycle;
    if (first_divergence < 0 && omitted.out.read() != oracle.out.read()) {
      first_divergence = cycle;
    }
  }
  EXPECT_EQ(first_divergence, 1);
  EXPECT_EQ(omitted.out.read(), 0);  // stale since reset
  EXPECT_EQ(oracle.out.read(), 5);
}

// ---------------------------------------------------------------------
// Pending work blocks the quiescence jump of run(n) for the edge that
// does it; the rest of the run still jumps. Each run below spans a
// trillion cycles, so it finishes only if it jumps.
// ---------------------------------------------------------------------

constexpr std::uint64_t kLongRun = 1'000'000'000'000;

// A gated register: drives its value, sleeps after every tick, and
// counts its ticks and its caught-up cycles.
class IdleReg : public sim::Module {
 public:
  IdleReg(std::string name, sim::Wire<int>& out)
      : sim::Module(std::move(name)), out_(out) {}
  void eval() override { out_.write(value_); }
  void tick() override {
    ++ticks;
    tick_evt_ = false;
    set_tick_idle(true);
  }
  void skip_ticks(std::uint64_t n) override { skipped += n; }

  int ticks = 0;
  std::uint64_t skipped = 0;

 private:
  sim::Wire<int>& out_;
  int value_ = 0;
};

// A combinational driver with no clocked state: it never ticks and is
// never awake, so a notification only puts it on the worklist.
class Knob : public sim::Module {
 public:
  Knob(std::string name, sim::Wire<int>& out)
      : sim::Module(std::move(name)), out_(out) {}
  bool is_sequential() const override { return false; }
  void eval() override { out_.write(value_); }
  void set(int v) {
    value_ = v;
    notify_state_change();
  }

 private:
  sim::Wire<int>& out_;
  int value_ = 0;
};

TEST(SimSettleEventDriven, PendingWorklistEntryBlocksTheJumpForOneEdge) {
  sim::Wire<int> r, k;
  IdleReg reg("reg", r);
  Knob knob("knob", k);
  sim::Simulator s;
  s.add(reg);
  s.add(knob);
  s.reset();
  s.run(10);
  ASSERT_EQ(reg.ticks, 1);
  ASSERT_EQ(reg.skipped, 9u);

  const std::uint64_t e0 = s.module_evals();
  knob.set(4);
  s.run(kLongRun);
  EXPECT_EQ(k.read(), 4);
  EXPECT_EQ(s.module_evals() - e0, 1u);  // drained at the first edge
  EXPECT_EQ(reg.ticks, 1);               // which woke nobody
  EXPECT_EQ(reg.skipped, 9 + kLongRun);
  EXPECT_EQ(s.cycle(), 10 + kLongRun);
}

TEST(SimSettleEventDriven, AmbientWriteBlocksTheJumpForOneEdge) {
  sim::Wire<int> r, tb;
  IdleReg reg("reg", r);
  sim::Simulator s;
  s.add(reg);
  s.reset();
  s.run(10);

  const std::uint64_t e0 = s.module_evals();
  tb.write(1);  // names no module: everything re-evaluates and wakes
  s.run(kLongRun);
  EXPECT_EQ(s.module_evals() - e0, 1u);
  EXPECT_EQ(reg.ticks, 2);  // at the first edge only
  EXPECT_EQ(reg.skipped, 9 + kLongRun - 1);

  tb.write(1);  // no value change: nothing to invalidate
  s.run(kLongRun);
  EXPECT_EQ(s.module_evals() - e0, 1u);
  EXPECT_EQ(reg.ticks, 2);
  EXPECT_EQ(s.cycle(), 10 + 2 * kLongRun);
}

TEST(SimSettleEventDriven, StatsReportWiresAndEdges) {
  CounterFixture f;
  const sim::sched::SchedStats& st = f.s.sched_stats();
  // Wires with a declared reader: only q (inc reads it in eval; the
  // flop samples d in tick(), so it declares nothing).
  EXPECT_EQ(st.wires, 1u);
  EXPECT_EQ(st.edges, 1u);  // inc <- q
  EXPECT_GT(st.module_evals, 0u);
  EXPECT_GT(st.drains, 0u);
  EXPECT_GT(st.wire_writes, 0u);
}

}  // namespace
