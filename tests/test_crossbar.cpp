// Crossbar unit suite: address-map validation, same-ID ordering stalls
// across subordinates, DECERR burst responses, the facade's edge report
// while DECERR responses are queued, and round-robin fairness at
// asymmetric N x M sizes.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "axi/crossbar.hpp"
#include "axi/link.hpp"
#include "axi/memory.hpp"
#include "axi/scoreboard.hpp"
#include "axi/traffic_gen.hpp"
#include "sim/kernel.hpp"

namespace {

using namespace axi;

// ------------------------------------------------------------------
// Address-map validation (the decoder is built with the XbarState,
// before any shard exists).
// ------------------------------------------------------------------

TEST(XbarMapValidation, RejectsZeroSizeRange) {
  Link m0, s0, s1;
  EXPECT_THROW(Crossbar("xbar", {&m0}, {&s0, &s1},
                        {AddrRange{0x0, 0x1000, 0}, AddrRange{0x2000, 0, 1}}),
               std::invalid_argument);
}

TEST(XbarMapValidation, RejectsOverlappingRanges) {
  Link m0, s0, s1;
  EXPECT_THROW(Crossbar("xbar", {&m0}, {&s0, &s1},
                        {AddrRange{0x0000, 0x2000, 0},
                         AddrRange{0x1000, 0x2000, 1}}),
               std::invalid_argument);
  // Identical ranges are overlaps too.
  EXPECT_THROW(Crossbar("xbar", {&m0}, {&s0, &s1},
                        {AddrRange{0x0000, 0x1000, 0},
                         AddrRange{0x0000, 0x1000, 1}}),
               std::invalid_argument);
}

TEST(XbarMapValidation, RejectsOutOfRangeSubIndex) {
  Link m0, s0;
  EXPECT_THROW(Crossbar("xbar", {&m0}, {&s0}, {AddrRange{0x0, 0x1000, 1}}),
               std::invalid_argument);
}

TEST(XbarMapValidation, RejectsAddressSpaceWrap) {
  Link m0, s0;
  EXPECT_THROW(Crossbar("xbar", {&m0}, {&s0},
                        {AddrRange{~Addr{0} - 0xFF, 0x1000, 0}}),
               std::invalid_argument);
}

TEST(XbarMapValidation, AcceptsUnsortedDisjointMapAndRoutesCorrectly) {
  Link m0, s0, s1;
  TrafficGenerator g0("g0", m0);
  MemorySubordinate mem0("mem0", s0), mem1("mem1", s1);
  // Ranges given in descending base order: the decoder sorts internally.
  Crossbar xbar("xbar", {&m0}, {&s0, &s1},
                {AddrRange{0x10000, 0x10000, 1}, AddrRange{0x0, 0x10000, 0}});
  sim::Simulator s;
  s.add(g0);
  s.add(xbar);
  s.add(mem0);
  s.add(mem1);
  s.reset();
  g0.push(TxnDesc{true, 0, 0x00100, 0, 3, Burst::kIncr});
  g0.push(TxnDesc{true, 0, 0x10100, 0, 3, Burst::kIncr});
  ASSERT_TRUE(s.run_until([&] { return g0.completed() >= 2; }, 1000));
  EXPECT_EQ(mem0.writes_done(), 1u);
  EXPECT_EQ(mem1.writes_done(), 1u);
}

// ------------------------------------------------------------------
// Behaviour suite
// ------------------------------------------------------------------

/// Simple n_m x n_s testbench with 64 KiB windows per subordinate.
struct Bench {
  std::vector<std::unique_ptr<Link>> links;
  std::vector<std::unique_ptr<TrafficGenerator>> gens;
  std::vector<std::unique_ptr<MemorySubordinate>> mems;
  std::vector<std::unique_ptr<Scoreboard>> sbs;
  std::unique_ptr<Crossbar> xbar;
  sim::Simulator s;

  Bench(unsigned n_m, unsigned n_s, MemoryConfig mem_cfg = {}) {
    std::vector<Link*> mp, sp;
    std::vector<AddrRange> map;
    for (unsigned i = 0; i < n_m; ++i) {
      links.push_back(std::make_unique<Link>());
      mp.push_back(links.back().get());
      gens.push_back(std::make_unique<TrafficGenerator>(
          "gen" + std::to_string(i), *links.back(), 100 + i));
      sbs.push_back(std::make_unique<Scoreboard>("sb" + std::to_string(i),
                                                 *links.back()));
    }
    for (unsigned j = 0; j < n_s; ++j) {
      links.push_back(std::make_unique<Link>());
      sp.push_back(links.back().get());
      mems.push_back(std::make_unique<MemorySubordinate>(
          "mem" + std::to_string(j), *links.back(), mem_cfg));
      map.push_back(AddrRange{j * 0x1'0000ull, 0x1'0000ull, j});
    }
    xbar = std::make_unique<Crossbar>("xbar", mp, sp, map, 8);
    for (auto& g : gens) s.add(*g);
    s.add(*xbar);
    for (auto& m : mems) s.add(*m);
    for (auto& sb : sbs) s.add(*sb);
    s.reset();
  }

  Link& mgr(unsigned i) { return *links[i]; }
  Link& sub(unsigned j) { return *links[gens.size() + j]; }
};

// A manager's second same-ID write towards a *different* subordinate
// must stall until the first drains; a different-ID write must not.
TEST(XbarBehaviour, SameIdOrderingStallsAcrossSubordinates) {
  MemoryConfig slow;
  slow.b_latency = 20;  // widen the outstanding window
  Bench b(1, 2, slow);
  b.gens[0]->push(TxnDesc{true, 5, 0x00000, 0, 3, Burst::kIncr});  // sub 0
  b.gens[0]->push(TxnDesc{true, 5, 0x10000, 0, 3, Burst::kIncr});  // sub 1

  std::uint64_t first_b_at = 0, sub1_aw_at = 0;
  for (std::uint64_t c = 0; c < 300 && b.gens[0]->completed() < 2; ++c) {
    b.s.step();
    const Link& mgr = b.mgr(0);
    if (first_b_at == 0 && mgr.rsp.read().b_valid &&
        mgr.req.read().b_ready) {
      first_b_at = c + 1;  // +1: cycle 0 must be distinct from "never"
    }
    if (sub1_aw_at == 0 && b.sub(1).req.read().aw_valid) {
      sub1_aw_at = c + 1;
    }
  }
  ASSERT_EQ(b.gens[0]->completed(), 2u);
  ASSERT_GT(first_b_at, 0u);
  ASSERT_GT(sub1_aw_at, 0u);
  // The second AW reached subordinate 1 only after the first write's B.
  EXPECT_GT(sub1_aw_at, first_b_at);

  // Control: distinct IDs overlap freely.
  Bench b2(1, 2, slow);
  b2.gens[0]->push(TxnDesc{true, 5, 0x00000, 0, 3, Burst::kIncr});
  b2.gens[0]->push(TxnDesc{true, 6, 0x10000, 0, 3, Burst::kIncr});
  std::uint64_t overlap_at = 0;
  for (std::uint64_t c = 0; c < 300 && b2.gens[0]->completed() < 2; ++c) {
    b2.s.step();
    if (overlap_at == 0 && b2.sub(1).req.read().aw_valid &&
        b2.gens[0]->completed() == 0) {
      overlap_at = c + 1;  // sub 1 addressed while sub 0's write in flight
    }
  }
  ASSERT_EQ(b2.gens[0]->completed(), 2u);
  EXPECT_GT(overlap_at, 0u);
  for (auto& sb : b2.sbs) EXPECT_EQ(sb->violation_count(), 0u);
}

// Unmapped write and read bursts complete with DECERR: one B per write,
// a full R burst (with correct last positioning) per read.
TEST(XbarBehaviour, DecErrBurstResponses) {
  Bench b(2, 2);
  const Addr unmapped = 0x40'0000;
  b.gens[0]->push(TxnDesc{true, 3, unmapped, 3, 3, Burst::kIncr});
  b.gens[1]->push(TxnDesc{false, 4, unmapped + 0x100, 7, 3, Burst::kIncr});
  ASSERT_TRUE(b.s.run_until(
      [&] {
        return b.gens[0]->completed() >= 1 && b.gens[1]->completed() >= 1;
      },
      1000));
  EXPECT_EQ(b.xbar->decode_errors(), 2u);
  EXPECT_EQ(b.gens[0]->error_responses(), 1u);
  EXPECT_EQ(b.gens[1]->error_responses(), 1u);
  for (const auto& r : b.gens[0]->records()) {
    EXPECT_EQ(r.resp, Resp::kDecErr);
  }
  for (const auto& r : b.gens[1]->records()) {
    EXPECT_EQ(r.resp, Resp::kDecErr);
  }
  // No protocol violations while erroring out (WLAST/RLAST positioning
  // is checked by the scoreboards).
  for (auto& sb : b.sbs) EXPECT_EQ(sb->violation_count(), 0u);

  // Mapped traffic still flows cleanly afterwards.
  b.gens[0]->push(TxnDesc{true, 3, 0x00040, 3, 3, Burst::kIncr});
  ASSERT_TRUE(b.s.run_until([&] { return b.gens[0]->completed() >= 2; },
                            1000));
  EXPECT_EQ(b.gens[0]->error_responses(), 1u);
}

// The facade's edge report counts a queued DECERR response as activity
// even while its manager's port is quiet: a DECERR write whose W beats
// have not started keeps the facade ticking, and a drained queue lets it
// sleep.
TEST(XbarBehaviour, QueuedDecErrKeepsTheFacadeAwake) {
  Bench b(3, 2);
  b.gens[2]->set_w_start_delay(12);
  b.gens[2]->push(TxnDesc{true, 1, 0x40'0000, 1, 3, Burst::kIncr});
  const Link& port = b.mgr(2);
  unsigned quiet_edges = 0;
  for (int c = 0; c < 100 && b.gens[2]->completed() == 0; ++c) {
    const bool quiet = !port.req.read().aw_valid && !port.req.read().w_valid &&
                       !port.rsp.read().b_valid;
    b.s.step();
    if (quiet && b.xbar->decode_errors() == 1) {
      ++quiet_edges;
      EXPECT_FALSE(b.xbar->tick_idle()) << "cycle " << c;
    }
  }
  ASSERT_EQ(b.gens[2]->completed(), 1u);
  EXPECT_GE(quiet_edges, 10u);
  b.s.run(3);
  EXPECT_TRUE(b.xbar->tick_idle());
}

// Round-robin fairness at asymmetric sizes: under saturating contention
// every manager makes comparable progress.
TEST(XbarBehaviour, RoundRobinFairnessAsymmetricGrids) {
  const struct {
    unsigned n_m, n_s;
    std::uint64_t cycles;
  } kGrids[] = {{1, 4, 4000}, {4, 1, 6000}, {8, 6, 8000}};
  for (const auto& g : kGrids) {
    SCOPED_TRACE(std::to_string(g.n_m) + "x" + std::to_string(g.n_s));
    Bench b(g.n_m, g.n_s);
    RandomTrafficConfig rc;
    rc.enabled = true;
    rc.p_new_txn = 0.5;  // saturate
    rc.len_max = 3;
    rc.addr_max = g.n_s * 0x1'0000ull - 8;
    for (auto& gen : b.gens) gen->set_random(rc);
    b.s.run(g.cycles);

    std::size_t min_done = ~std::size_t{0}, max_done = 0;
    for (auto& gen : b.gens) {
      min_done = std::min(min_done, gen->completed());
      max_done = std::max(max_done, gen->completed());
      EXPECT_EQ(gen->data_mismatches(), 0u);
      EXPECT_EQ(gen->error_responses(), 0u);
    }
    EXPECT_GT(min_done, 0u);
    // Round-robin arbitration: no manager starves. The generators'
    // random draws differ, so allow slack around perfect fairness.
    EXPECT_GE(static_cast<double>(min_done),
              0.5 * static_cast<double>(max_done));
    for (auto& sb : b.sbs) {
      ASSERT_EQ(sb->violation_count(), 0u)
          << sb->violations()[0].rule << " " << sb->violations()[0].detail;
    }
  }
}

}  // namespace
