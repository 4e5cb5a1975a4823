#include <gtest/gtest.h>

#include <stdexcept>

#include "axi/id_remap.hpp"

namespace {

using axi::IdRemapper;

TEST(IdRemap, AllocatesCompactTids) {
  IdRemapper r(4);
  auto t0 = r.admit(0x700);
  auto t1 = r.admit(0x033);
  ASSERT_TRUE(t0 && t1);
  EXPECT_NE(*t0, *t1);
  EXPECT_LT(*t0, 4);
  EXPECT_LT(*t1, 4);
  EXPECT_EQ(r.active_ids(), 2u);
}

TEST(IdRemap, SameIdReusesSlot) {
  IdRemapper r(2);
  auto a = r.admit(5);
  auto b = r.admit(5);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(r.outstanding(*a), 2u);
  EXPECT_EQ(r.active_ids(), 1u);
}

TEST(IdRemap, SaturationRefusesNewIds) {
  IdRemapper r(2);
  ASSERT_TRUE(r.admit(1));
  ASSERT_TRUE(r.admit(2));
  EXPECT_FALSE(r.can_admit(3));
  EXPECT_FALSE(r.admit(3).has_value());
  // But an already-mapped ID is still admittable.
  EXPECT_TRUE(r.can_admit(1));
  EXPECT_TRUE(r.admit(1).has_value());
}

TEST(IdRemap, ReleaseFreesSlotAtZero) {
  IdRemapper r(1);
  auto t = r.admit(9);
  ASSERT_TRUE(t);
  EXPECT_FALSE(r.can_admit(10));
  r.release(*t);
  EXPECT_TRUE(r.can_admit(10));
  auto t2 = r.admit(10);
  ASSERT_TRUE(t2);
  EXPECT_EQ(*t2, *t);  // slot recycled
}

TEST(IdRemap, ReleaseOnlyFreesAtZeroCount) {
  IdRemapper r(1);
  auto t = r.admit(9);
  r.admit(9);
  r.release(*t);
  EXPECT_FALSE(r.can_admit(10));  // one still outstanding
  r.release(*t);
  EXPECT_TRUE(r.can_admit(10));
}

TEST(IdRemap, OriginalIdTracked) {
  IdRemapper r(4);
  auto t = r.admit(0xABC);
  ASSERT_TRUE(t);
  EXPECT_EQ(r.original_id(*t), 0xABCu);
}

TEST(IdRemap, LookupMissReturnsNullopt) {
  IdRemapper r(4);
  EXPECT_FALSE(r.lookup(77).has_value());
}

TEST(IdRemap, ClearResetsEverything) {
  IdRemapper r(2);
  r.admit(1);
  r.admit(2);
  r.clear();
  EXPECT_EQ(r.active_ids(), 0u);
  EXPECT_TRUE(r.can_admit(3));
}

TEST(IdRemap, RejectsMoreSlotsThanEightBitTids) {
  EXPECT_NO_THROW(IdRemapper(256));
  EXPECT_THROW(IdRemapper(257), std::invalid_argument);
}

// Property: wide sparse ID space maps into [0, capacity).
class RemapSweep : public ::testing::TestWithParam<int> {};

TEST_P(RemapSweep, SparseIdsCompacted) {
  const int cap = GetParam();
  IdRemapper r(cap);
  for (int i = 0; i < cap; ++i) {
    auto t = r.admit(static_cast<axi::Id>(i * 0x1357 + 11));
    ASSERT_TRUE(t);
    EXPECT_LT(*t, cap);
  }
  EXPECT_EQ(r.active_ids(), static_cast<std::uint32_t>(cap));
  EXPECT_FALSE(r.can_admit(0xFFFF));
}

// 256 slots: every tID fits in 8 bits, and the slot scans must still
// end when no slot matches.
INSTANTIATE_TEST_SUITE_P(Caps, RemapSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 256));

}  // namespace
