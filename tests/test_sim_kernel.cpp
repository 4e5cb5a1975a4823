#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>

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
