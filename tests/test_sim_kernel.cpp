#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/wire.hpp"

namespace {

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

TEST(SimKernel, CounterFromFlopPlusIncrement) {
  sim::Wire<int> q, d;
  DFlop flop("flop", d, q);
  Inc inc("inc", q, d);
  sim::Simulator s;
  // Register in an order that requires settling (inc depends on flop).
  s.add(inc);
  s.add(flop);
  s.reset();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(q.read(), i);
    s.step();
  }
  EXPECT_EQ(s.cycle(), 10u);
}

TEST(SimKernel, SettleIsIdempotent) {
  sim::Wire<int> q, d;
  DFlop flop("flop", d, q);
  Inc inc("inc", q, d);
  sim::Simulator s;
  s.add(flop);
  s.add(inc);
  s.reset();
  s.settle();
  const int v1 = d.read();
  s.settle();
  EXPECT_EQ(d.read(), v1);
}

class Oscillator : public sim::Module {
 public:
  Oscillator(std::string name, sim::Wire<int>& w)
      : sim::Module(std::move(name)), w_(w) {}
  void eval() override { w_.write(1 - w_.read()); }
  void visit_inputs(sim::InputVisitor& v) override { v.input(w_); }

 private:
  sim::Wire<int>& w_;
};

TEST(SimKernel, CombinationalLoopDetected) {
  sim::Wire<int> w;
  Oscillator osc("osc", w);
  sim::Simulator s;
  s.add(osc);
  EXPECT_THROW(s.step(), sim::ConvergenceError);
}

TEST(SimKernel, RunUntilPredicate) {
  sim::Wire<int> q, d;
  DFlop flop("flop", d, q);
  Inc inc("inc", q, d);
  sim::Simulator s;
  s.add(flop);
  s.add(inc);
  s.reset();
  EXPECT_TRUE(s.run_until([&] { return q.read() == 7; }, 100));
  EXPECT_EQ(q.read(), 7);
  EXPECT_FALSE(s.run_until([&] { return q.read() == 5; }, 10));
}

TEST(SimKernel, ResetRestoresState) {
  sim::Wire<int> q, d;
  DFlop flop("flop", d, q);
  Inc inc("inc", q, d);
  sim::Simulator s;
  s.add(flop);
  s.add(inc);
  s.reset();
  s.run(5);
  EXPECT_EQ(q.read(), 5);
  s.reset();
  EXPECT_EQ(q.read(), 0);
  EXPECT_EQ(s.cycle(), 0u);
}

TEST(SimKernel, CycleCallbackSeesSettledValues) {
  sim::Wire<int> q, d;
  DFlop flop("flop", d, q);
  Inc inc("inc", q, d);
  sim::Simulator s;
  s.add(flop);
  s.add(inc);
  int sum = 0;
  s.on_cycle([&](std::uint64_t) { sum += d.read(); });
  s.reset();
  s.run(3);  // d = 1, 2, 3 at the three edges
  EXPECT_EQ(sum, 6);
}

// Counts its clock edges; optionally exposes one like it as a submodule,
// the way the sharded crossbar exposes its shards.
class TickCounter : public sim::Module {
 public:
  explicit TickCounter(std::string name, TickCounter* shard = nullptr)
      : sim::Module(std::move(name)), shard_(shard) {}
  void tick() override { ++ticks; }
  void visit_submodules(
      const std::function<void(sim::Module&)>& visit) override {
    if (shard_ != nullptr) visit(*shard_);
  }
  int ticks = 0;

 private:
  TickCounter* shard_;
};

TEST(SimKernel, ReAddToTheSameSimulatorIsANoOp) {
  TickCounter shard("c.shard");
  TickCounter c("c", &shard);
  sim::Simulator s;
  s.add(c);
  s.add(c);
  s.add(shard);
  s.run(10);
  EXPECT_EQ(c.ticks, 10);
  EXPECT_EQ(shard.ticks, 10);
  EXPECT_EQ(s.modules().size(), 2u);
}

TEST(SimKernel, AddToASecondSimulatorRebinds) {
  TickCounter c("c");
  sim::Simulator a;
  sim::Simulator b;
  a.add(c);
  b.add(c);
  EXPECT_EQ(c.context(), &b.context());
  b.run(3);
  EXPECT_EQ(c.ticks, 3);
  EXPECT_EQ(b.modules().size(), 1u);
}

// ---------------------------------------------------------------------
// The quiescence jump: once every sequential module sleeps and nothing is
// pending, run(n) moves the cycle counter to the end of the run and
// catches each sleeper up once.
// ---------------------------------------------------------------------

// Reports idle after every tick, so it sleeps from its first edge on;
// records every tick and every catch-up.
class Sleeper : public sim::Module {
 public:
  explicit Sleeper(std::string name) : sim::Module(std::move(name)) {}
  bool is_combinational() const override { return false; }
  void tick() override {
    ++ticks;
    set_tick_idle(true);
  }
  void skip_ticks(std::uint64_t n) override { skips.push_back(n); }
  /// A tick-relevant mutation: only wakes, enqueues no eval.
  void kick() { wake(); }

  int ticks = 0;
  std::vector<std::uint64_t> skips;
};

TEST(SimKernel, RunJumpsOverAnAllAsleepNetlist) {
  Sleeper a("a"), b("b"), c("c");
  sim::Simulator s;
  for (Sleeper* m : {&a, &b, &c}) s.add(*m);
  s.reset();
  s.run(1);  // every module ticks once and falls asleep
  for (Sleeper* m : {&a, &b, &c}) {
    ASSERT_EQ(m->ticks, 1) << m->name();
    ASSERT_TRUE(m->skips.empty()) << m->name();
  }
  // A trillion edges, one per cycle, would not finish: the run is O(1).
  constexpr std::uint64_t kN = 1'000'000'000'000;
  s.run(kN);
  EXPECT_EQ(s.cycle(), 1 + kN);
  for (Sleeper* m : {&a, &b, &c}) {
    EXPECT_EQ(m->ticks, 1) << m->name();
    EXPECT_EQ(m->skips, std::vector<std::uint64_t>{kN}) << m->name();
  }
  EXPECT_EQ(s.module_evals(), 0u);  // none of them is combinational

  // A wake blocks the jump for the edge the woken module ticks at.
  b.kick();
  s.run(10);
  EXPECT_EQ(a.ticks, 1);
  EXPECT_EQ(b.ticks, 2);
  EXPECT_EQ(b.skips, (std::vector<std::uint64_t>{kN, 9}));
  EXPECT_EQ(a.skips, (std::vector<std::uint64_t>{kN, 10}));

  // step() keeps its per-edge behaviour: one catch-up per call.
  s.step();
  EXPECT_EQ(a.skips.back(), 1u);
  EXPECT_EQ(s.cycle(), 12 + kN);
}

TEST(SimKernel, CycleCallbackSeesEveryCycleOfAnIdleNetlist) {
  Sleeper a("a");
  sim::Simulator s;
  s.add(a);
  std::vector<std::uint64_t> seen;
  s.on_cycle([&](std::uint64_t c) { seen.push_back(c); });
  s.reset();
  s.run(1000);
  ASSERT_EQ(seen.size(), 1000u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
  EXPECT_EQ(a.ticks, 1);  // it still sleeps; only the jump is off
  EXPECT_EQ(s.cycle(), 1000u);
}

TEST(SimKernel, RunUntilPredicateSeesEveryCycleOfAnIdleNetlist) {
  Sleeper a("a");
  sim::Simulator s;
  s.add(a);
  s.reset();
  s.run(5);
  std::vector<std::uint64_t> seen;
  EXPECT_FALSE(s.run_until(
      [&] {
        seen.push_back(s.cycle());
        return false;
      },
      500));
  ASSERT_EQ(seen.size(), 501u);  // before each of the 500 edges, and after
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], 5 + i);
  EXPECT_EQ(a.ticks, 1);
  EXPECT_EQ(s.cycle(), 505u);
}

// A compound module in the sharded crossbar's shape: the shards keep no
// clocked state, the parent's tick() sets their edge reports, and every
// module logs its evals. The parent is busy for a few edges after each
// kick and sleeps otherwise.
class Shard : public sim::Module {
 public:
  Shard(std::string name, std::vector<std::string>& log)
      : sim::Module(std::move(name)), log_(log) {}
  bool is_sequential() const override { return false; }
  void eval() override {
    log_.push_back(name());
    ++evals;
  }
  void tick() override { ++ticks; }  // the full sweep's no-op edge
  void report(bool evt) { tick_evt_ = evt; }

  int evals = 0;
  int ticks = 0;

 private:
  std::vector<std::string>& log_;
};

class Burst : public sim::Module {
 public:
  Burst(std::string name, std::vector<std::string>& log)
      : sim::Module(name),
        a(name + ".a", log),
        b(name + ".b", log),
        log_(log) {}
  void eval() override {
    log_.push_back(name());
    ++evals;
  }
  void tick() override {
    const bool busy = left_ > 0;
    if (busy) --left_;
    tick_evt_ = busy;
    a.report(busy);
    b.report(busy);
    set_tick_idle(!busy);
  }
  void visit_submodules(
      const std::function<void(sim::Module&)>& visit) override {
    visit(a);
    visit(b);
  }
  void kick(int edges) {
    wake();
    left_ = edges;
  }

  Shard a, b;
  int evals = 0;

 private:
  std::vector<std::string>& log_;
  int left_ = 0;
};

TEST(SimKernel, NonSequentialShardsReportThroughTheirParent) {
  for (const auto policy :
       {sim::sched::SchedPolicy::kEventDriven,
        sim::sched::SchedPolicy::kFullSweep}) {
    SCOPED_TRACE(sim::sched::to_string(policy));
    std::vector<std::string> log;
    Burst p("p", log);
    sim::Simulator s(policy);
    s.add(p);
    ASSERT_EQ(s.modules().size(), 3u);
    s.reset();
    s.run(40);
    p.kick(5);
    s.run(40);
    p.kick(3);
    s.run(7);
    s.step();
    s.run(300);

    // Each shard re-evaluates exactly when the parent does, right after
    // it: one (parent, shard, shard) triple per settle.
    EXPECT_EQ(p.a.evals, p.evals);
    EXPECT_EQ(p.b.evals, p.evals);
    ASSERT_EQ(log.size() % 3, 0u);
    for (std::size_t i = 0; i < log.size(); i += 3) {
      EXPECT_EQ(log[i], "p");
      EXPECT_EQ(log[i + 1], "p.a");
      EXPECT_EQ(log[i + 2], "p.b");
    }
    EXPECT_EQ(s.cycle(), 388u);
    if (policy == sim::sched::SchedPolicy::kEventDriven) {
      // The settle in reset(), and the 5 + 3 busy edges.
      EXPECT_EQ(p.evals, 9);
      EXPECT_EQ(p.a.ticks, 0);  // never ticked, never gated
      EXPECT_FALSE(s.sched_profile().modules[1].asleep);
    } else {
      EXPECT_EQ(p.a.ticks, 388);  // the reference ticks everything
    }
  }
}

// Notifications carry the index the latest add() bound: a module rebound
// from a larger netlist notifies its new simulator under its index there.
class Knob : public sim::Module {
 public:
  explicit Knob(std::string name) : sim::Module(std::move(name)) {}
  void eval() override { ++evals; }
  void tick() override {
    tick_evt_ = false;
    set_tick_idle(true);
  }
  void set() { notify_state_change(); }
  int evals = 0;
};

TEST(SimKernel, RebindNotifiesUnderTheNewIndex) {
  Sleeper pad("pad");
  Knob k("k");
  sim::Simulator a;
  sim::Simulator b;
  a.add(pad);
  a.add(k);  // index 1 in a
  b.add(k);  // index 0 in b
  b.reset();
  b.run(10);
  const int before = k.evals;
  k.set();
  b.run(10);
  EXPECT_EQ(k.evals, before + 1);
  EXPECT_EQ(b.sched_profile().modules[0].notify_wakeups, 1u);
  EXPECT_EQ(a.sched_profile().modules[1].notify_wakeups, 0u);
}

TEST(Rng, DeterministicAcrossInstances) {
  sim::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, RangeBounds) {
  sim::Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.range(3, 9);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, ChanceExtremes) {
  sim::Rng r(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Stats, RunningStatsBasics) {
  sim::RunningStats st;
  for (double x : {1.0, 2.0, 3.0, 4.0}) st.add(x);
  EXPECT_EQ(st.count(), 4u);
  EXPECT_DOUBLE_EQ(st.mean(), 2.5);
  EXPECT_DOUBLE_EQ(st.min(), 1.0);
  EXPECT_DOUBLE_EQ(st.max(), 4.0);
  EXPECT_NEAR(st.stddev(), 1.2909944, 1e-6);
}

TEST(Stats, HistogramPercentiles) {
  sim::Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.add(v);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_EQ(h.percentile(0.5), 50u);
  EXPECT_EQ(h.percentile(0.99), 99u);
  EXPECT_EQ(h.percentile(1.0), 100u);
}

TEST(Stats, EmptyHistogram) {
  sim::Histogram h;
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
}

}  // namespace
