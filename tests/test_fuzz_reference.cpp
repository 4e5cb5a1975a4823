// Reference-model fuzzing: the ID remapper and the OTT are driven with
// long random operation sequences and checked step-by-step against
// simple oracle implementations.

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <optional>

#include "axi/id_remap.hpp"
#include "sim/random.hpp"
#include "tmu/ott.hpp"

namespace {

// ------------------------- IdRemapper fuzz ----------------------------

/// Oracle: a plain map id -> outstanding count, capacity-limited.
struct RemapOracle {
  explicit RemapOracle(std::uint32_t cap) : cap(cap) {}
  std::uint32_t cap;
  std::map<axi::Id, std::uint32_t> live;

  bool can_admit(axi::Id id) const {
    return live.count(id) > 0 || live.size() < cap;
  }
  void admit(axi::Id id) { ++live[id]; }
  void release(axi::Id id) {
    auto it = live.find(id);
    if (--it->second == 0) live.erase(it);
  }
};

class RemapFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RemapFuzz, MatchesOracle) {
  const std::uint32_t cap = 4;
  axi::IdRemapper remap(cap);
  RemapOracle oracle(cap);
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::map<axi::Id, std::deque<std::uint8_t>> issued;  // id -> tids

  for (int step = 0; step < 5000; ++step) {
    const axi::Id id = static_cast<axi::Id>(rng.range(0, 11) * 37);
    if (rng.chance(0.55)) {
      // Try to admit.
      ASSERT_EQ(remap.can_admit(id), oracle.can_admit(id))
          << "step " << step << " id " << id;
      const auto tid = remap.admit(id);
      if (oracle.can_admit(id)) {
        ASSERT_TRUE(tid.has_value());
        oracle.admit(id);
        issued[id].push_back(*tid);
        ASSERT_EQ(remap.original_id(*tid), id);
      } else {
        ASSERT_FALSE(tid.has_value());
      }
    } else {
      // Release a random live id.
      if (issued.empty()) continue;
      auto it = issued.begin();
      std::advance(it, static_cast<long>(rng.range(0, issued.size() - 1)));
      remap.release(it->second.front());
      oracle.release(it->first);
      it->second.pop_front();
      if (it->second.empty()) issued.erase(it);
    }
    ASSERT_EQ(remap.active_ids(), oracle.live.size()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RemapFuzz, ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------- OTT fuzz --------------------------------

/// Oracle: per-tID FIFO of payload tags plus a global order list.
struct OttOracle {
  std::uint32_t ids, per_id, cap;
  std::map<std::uint8_t, std::deque<axi::Addr>> fifos;
  std::deque<axi::Addr> order;

  std::uint32_t occupancy() const {
    return static_cast<std::uint32_t>(order.size());
  }
  bool can_enqueue(std::uint8_t tid) const {
    return occupancy() < cap &&
           (fifos.count(tid) == 0 || fifos.at(tid).size() < per_id);
  }
};

class OttFuzz : public ::testing::TestWithParam<int> {};

TEST_P(OttFuzz, MatchesOracle) {
  const std::uint32_t ids = 4, per_id = 4;
  tmu::Ott ott(ids, per_id);
  OttOracle oracle{ids, per_id, ids * per_id, {}, {}};
  sim::Rng rng(static_cast<std::uint64_t>(100 + GetParam()));
  axi::Addr next_tag = 1;

  for (int step = 0; step < 5000; ++step) {
    const auto tid = static_cast<std::uint8_t>(rng.range(0, ids - 1));
    if (rng.chance(0.55)) {
      const int idx = ott.enqueue(tid, tid, next_tag, 0, step);
      if (oracle.can_enqueue(tid)) {
        ASSERT_GE(idx, 0) << "step " << step;
        oracle.fifos[tid].push_back(next_tag);
        oracle.order.push_back(next_tag);
      } else {
        ASSERT_LT(idx, 0) << "step " << step;
      }
      ++next_tag;
    } else {
      const int head = ott.head_of(tid);
      auto fit = oracle.fifos.find(tid);
      if (fit == oracle.fifos.end() || fit->second.empty()) {
        ASSERT_LT(head, 0) << "step " << step;
      } else {
        ASSERT_GE(head, 0);
        // Head matches the oracle FIFO front (same-ID order).
        ASSERT_EQ(ott.at(head).addr, fit->second.front()) << "step " << step;
        ott.dequeue(tid);
        for (auto oit = oracle.order.begin(); oit != oracle.order.end();
             ++oit) {
          if (*oit == fit->second.front()) {
            oracle.order.erase(oit);
            break;
          }
        }
        fit->second.pop_front();
      }
    }
    ASSERT_EQ(ott.occupancy(), oracle.occupancy()) << "step " << step;
    // EI order matches the oracle's global order.
    const auto& ei = ott.order();
    ASSERT_EQ(ei.size(), oracle.order.size());
    for (std::size_t i = 0; i < ei.size(); ++i) {
      ASSERT_EQ(ott.at(ei[i]).addr, oracle.order[i]) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OttFuzz, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
