#include <gtest/gtest.h>

#include "axi/link.hpp"
#include "axi/memory.hpp"
#include "axi/scoreboard.hpp"
#include "axi/traffic_gen.hpp"
#include "sim/kernel.hpp"
#include "soc/llc.hpp"

namespace {

using namespace axi;
using soc::LastLevelCache;
using soc::LlcConfig;

struct LlcFixture : ::testing::Test {
  Link up, down;
  TrafficGenerator gen{"gen", up, 5};
  LastLevelCache llc{"llc", up, down};
  MemoryConfig slow_cfg = [] {
    MemoryConfig c;
    c.r_first_latency = 20;  // make misses clearly slower than hits
    return c;
  }();
  MemorySubordinate mem{"mem", down, slow_cfg};
  Scoreboard sb{"sb", up};
  sim::Simulator s;

  void SetUp() override {
    s.add(gen);
    s.add(llc);
    s.add(mem);
    s.add(sb);
    s.reset();
  }

  void complete(std::size_t n, std::uint64_t budget = 5000) {
    ASSERT_TRUE(s.run_until([&] { return gen.completed() >= n; }, budget))
        << gen.completed() << "/" << n;
  }
};

TEST_F(LlcFixture, WriteThroughReachesMemory) {
  gen.push(TxnDesc{true, 0, 0x100, 3, 3, Burst::kIncr});
  complete(1);
  for (int b = 0; b < 4; ++b) {
    const Addr a = 0x100 + 8 * b;
    EXPECT_EQ(mem.peek_beat(a, 3), pattern_data(a));
  }
  EXPECT_EQ(sb.violation_count(), 0u);
}

TEST_F(LlcFixture, FirstReadMissesSecondHits) {
  gen.push(TxnDesc{false, 0, 0x200, 3, 3, Burst::kIncr});
  complete(1);
  EXPECT_EQ(llc.misses(), 1u);
  EXPECT_EQ(llc.hits(), 0u);
  gen.push(TxnDesc{false, 0, 0x200, 3, 3, Burst::kIncr});
  complete(2);
  EXPECT_EQ(llc.hits(), 1u);
  EXPECT_EQ(gen.data_mismatches(), 0u);
}

TEST_F(LlcFixture, HitIsFasterThanMiss) {
  gen.push(TxnDesc{false, 0, 0x300, 3, 3, Burst::kIncr});
  complete(1);
  gen.push(TxnDesc{false, 0, 0x300, 3, 3, Burst::kIncr});
  complete(2);
  const auto miss_lat =
      gen.records()[0].complete_cycle - gen.records()[0].accept_cycle;
  const auto hit_lat =
      gen.records()[1].complete_cycle - gen.records()[1].accept_cycle;
  EXPECT_LT(hit_lat + 10, miss_lat);
}

TEST_F(LlcFixture, WriteUpdatesCachedLine) {
  // Read (allocate), overwrite, read again: the hit must return the new
  // data, not the stale allocation.
  gen.push(TxnDesc{true, 0, 0x400, 3, 3, Burst::kIncr});
  complete(1);
  gen.push(TxnDesc{false, 0, 0x400, 3, 3, Burst::kIncr});
  complete(2);  // allocates
  gen.push(TxnDesc{true, 0, 0x400, 3, 3, Burst::kIncr});
  complete(3);  // write-through + update
  gen.push(TxnDesc{false, 0, 0x400, 3, 3, Burst::kIncr});
  complete(4);  // hit with fresh data
  EXPECT_EQ(gen.data_mismatches(), 0u);
  EXPECT_GE(llc.hits(), 1u);
}

TEST_F(LlcFixture, ConflictEvictionStillCorrect) {
  // Two addresses mapping to the same direct-mapped line (256 lines *
  // 64B = 16 KiB apart).
  const Addr a0 = 0x0500, a1 = 0x0500 + 256 * 64;
  gen.push(TxnDesc{true, 0, a0, 0, 3, Burst::kIncr});
  gen.push(TxnDesc{true, 0, a1, 0, 3, Burst::kIncr});
  complete(2);
  gen.push(TxnDesc{false, 0, a0, 0, 3, Burst::kIncr});  // miss + allocate
  complete(3);
  gen.push(TxnDesc{false, 0, a1, 0, 3, Burst::kIncr});  // conflict: evicts
  complete(4);
  gen.push(TxnDesc{false, 0, a0, 0, 3, Burst::kIncr});  // miss again
  complete(5);
  EXPECT_EQ(gen.data_mismatches(), 0u);
  EXPECT_GE(llc.misses(), 3u);
}

TEST_F(LlcFixture, RandomTrafficSoakCorrectAndMixed) {
  RandomTrafficConfig rc;
  rc.enabled = true;
  rc.p_new_txn = 0.3;
  rc.addr_max = 0x0FFF;  // small footprint: plenty of re-references
  rc.len_max = 7;
  gen.set_random(rc);
  s.run(8000);
  EXPECT_GT(gen.completed(), 100u);
  EXPECT_EQ(gen.data_mismatches(), 0u);
  EXPECT_EQ(sb.violation_count(), 0u)
      << sb.violations()[0].rule << " " << sb.violations()[0].detail;
  EXPECT_GT(llc.hits(), 0u);
  EXPECT_GT(llc.misses(), 0u);
  EXPECT_GT(llc.hit_rate(), 0.1);
}

TEST_F(LlcFixture, SameIdHitNeverOvertakesMiss) {
  // A miss followed by a hit with the SAME id: responses must stay in
  // order (the LLC demotes the hit).
  gen.push(TxnDesc{false, 2, 0x600, 3, 3, Burst::kIncr});
  complete(1);  // allocate 0x600
  // Now: miss (0x10000) then would-be-hit (0x600), same ID, both queued.
  gen.push(TxnDesc{false, 2, 0x10000 & 0xFFF8, 3, 3, Burst::kIncr});
  gen.push(TxnDesc{false, 2, 0x600, 3, 3, Burst::kIncr});
  complete(3);
  EXPECT_EQ(sb.violation_count(), 0u);
  EXPECT_EQ(gen.data_mismatches(), 0u);
  // Completion order preserved.
  EXPECT_LT(gen.records()[1].complete_cycle, gen.records()[2].complete_cycle);
}

// The same netlist over the default memory, whose 2-cycle read latency
// returns miss data while an earlier hit is still being served (the
// 20-cycle memory above lets every hit drain first).
struct LlcOverDefaultMemory : ::testing::Test {
  Link up, down;
  TrafficGenerator gen{"gen", up, 5};
  LastLevelCache llc{"llc", up, down};
  MemorySubordinate mem{"mem", down, MemoryConfig{}};
  Scoreboard sb{"sb", up};
  sim::Simulator s;

  void SetUp() override {
    s.add(gen);
    s.add(llc);
    s.add(mem);
    s.add(sb);
    s.reset();
  }

  void complete(std::size_t n, std::uint64_t budget = 5000) {
    ASSERT_TRUE(s.run_until([&] { return gen.completed() >= n; }, budget))
        << gen.completed() << "/" << n;
  }

  // Writes one full line at `a` and reads it back once, so the cache
  // allocates it.
  void cache_line(Addr a) {
    const std::size_t n = gen.completed();
    gen.push(TxnDesc{true, 0, a, 7, 3, Burst::kIncr});
    complete(n + 1);
    gen.push(TxnDesc{false, 0, a, 7, 3, Burst::kIncr});
    complete(n + 2);
  }
};

TEST_F(LlcOverDefaultMemory, MissDoesNotEvictALineAQueuedHitServes) {
  // 0x1000 and 0x5000 share line index 64 of the 256-line cache.
  gen.push(TxnDesc{true, 0, 0x5000, 7, 3, Burst::kIncr});
  complete(1);
  cache_line(0x1000);
  const std::uint64_t hits = llc.hits();
  gen.push(TxnDesc{false, 1, 0x1000, 7, 3, Burst::kIncr});  // 8-beat hit
  gen.push(TxnDesc{false, 2, 0x5000, 7, 3, Burst::kIncr});  // miss
  complete(5);
  EXPECT_EQ(llc.hits(), hits + 1);
  EXPECT_EQ(gen.data_mismatches(), 0u);
  EXPECT_EQ(sb.violation_count(), 0u);
}

TEST_F(LlcOverDefaultMemory, SameIdMissNeverOvertakesHit) {
  gen.push(TxnDesc{true, 0, 0x8000, 0, 3, Burst::kIncr});
  complete(1);
  cache_line(0x1000);
  gen.push(TxnDesc{false, 1, 0x1000, 7, 3, Burst::kIncr});  // 8-beat hit
  gen.push(TxnDesc{false, 1, 0x8000, 0, 3, Burst::kIncr});  // 1-beat miss
  complete(5);
  EXPECT_EQ(gen.data_mismatches(), 0u);
  EXPECT_EQ(sb.violation_count(), 0u);
  // Completion order preserved.
  EXPECT_LT(gen.records()[3].complete_cycle, gen.records()[4].complete_cycle);
}

}  // namespace
