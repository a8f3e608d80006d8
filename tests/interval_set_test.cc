#include "util/interval_set.h"

#include <gtest/gtest.h>

#include "sim/random.h"

namespace vod {
namespace {

TEST(IntervalSet, StartsEmpty) {
  IntervalSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.measure(), 0.0);
}

TEST(IntervalSet, SingleInterval) {
  IntervalSet s;
  s.add(1.0, 3.0);
  EXPECT_FALSE(s.empty());
  EXPECT_DOUBLE_EQ(s.measure(), 2.0);
  ASSERT_EQ(s.intervals().size(), 1u);
  EXPECT_DOUBLE_EQ(s.intervals()[0].lo, 1.0);
  EXPECT_DOUBLE_EQ(s.intervals()[0].hi, 3.0);
}

TEST(IntervalSet, IgnoresEmptyAndInvertedRanges) {
  IntervalSet s;
  s.add(2.0, 2.0);
  s.add(5.0, 4.0);
  EXPECT_TRUE(s.empty());
}

TEST(IntervalSet, MergesOverlapping) {
  IntervalSet s;
  s.add(0.0, 2.0);
  s.add(1.0, 4.0);
  ASSERT_EQ(s.intervals().size(), 1u);
  EXPECT_DOUBLE_EQ(s.measure(), 4.0);
}

TEST(IntervalSet, MergesAdjacent) {
  IntervalSet s;
  s.add(0.0, 2.0);
  s.add(2.0, 3.0);
  ASSERT_EQ(s.intervals().size(), 1u);
  EXPECT_DOUBLE_EQ(s.measure(), 3.0);
}

TEST(IntervalSet, KeepsDisjointSeparate) {
  IntervalSet s;
  s.add(0.0, 1.0);
  s.add(2.0, 3.0);
  EXPECT_EQ(s.intervals().size(), 2u);
  EXPECT_DOUBLE_EQ(s.measure(), 2.0);
}

TEST(IntervalSet, AddBridgesManyIntervals) {
  IntervalSet s;
  s.add(0.0, 1.0);
  s.add(2.0, 3.0);
  s.add(4.0, 5.0);
  s.add(0.5, 4.5);
  ASSERT_EQ(s.intervals().size(), 1u);
  EXPECT_DOUBLE_EQ(s.measure(), 5.0);
}

TEST(IntervalSet, InsertBeforeAll) {
  IntervalSet s;
  s.add(5.0, 6.0);
  s.add(1.0, 2.0);
  ASSERT_EQ(s.intervals().size(), 2u);
  EXPECT_DOUBLE_EQ(s.intervals()[0].lo, 1.0);
}

TEST(IntervalSet, SubtractMiddleSplits) {
  IntervalSet s;
  s.add(0.0, 10.0);
  s.subtract(3.0, 7.0);
  ASSERT_EQ(s.intervals().size(), 2u);
  EXPECT_DOUBLE_EQ(s.measure(), 6.0);
  EXPECT_DOUBLE_EQ(s.intervals()[0].hi, 3.0);
  EXPECT_DOUBLE_EQ(s.intervals()[1].lo, 7.0);
}

TEST(IntervalSet, SubtractEverything) {
  IntervalSet s;
  s.add(1.0, 2.0);
  s.add(3.0, 4.0);
  s.subtract(0.0, 5.0);
  EXPECT_TRUE(s.empty());
}

TEST(IntervalSet, SubtractNoOverlapIsNoop) {
  IntervalSet s;
  s.add(1.0, 2.0);
  s.subtract(3.0, 4.0);
  EXPECT_DOUBLE_EQ(s.measure(), 1.0);
}

// Property test: random adds/subtracts agree with a brute-force boolean
// grid over [0, 130) at integer resolution, which holds every range
// drawn (lo < 100, hi < lo + 30).
TEST(IntervalSetProperty, MatchesBruteForceGrid) {
  Rng rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    IntervalSet s;
    std::vector<bool> grid(130, false);
    for (int op = 0; op < 40; ++op) {
      const int lo = static_cast<int>(rng.uniform_index(100));
      const int hi = lo + static_cast<int>(rng.uniform_index(30));
      const bool add = rng.uniform() < 0.7;
      if (add) {
        s.add(lo, hi);
      } else {
        s.subtract(lo, hi);
      }
      for (int x = lo; x < hi; ++x) grid[static_cast<size_t>(x)] = add;
      double grid_measure = 0.0;
      for (bool b : grid) grid_measure += b ? 1.0 : 0.0;
      ASSERT_DOUBLE_EQ(s.measure(), grid_measure)
          << "trial " << trial << " op " << op;
    }
    // Invariant: intervals sorted, disjoint, non-empty, non-adjacent.
    const auto& ivs = s.intervals();
    for (size_t i = 0; i < ivs.size(); ++i) {
      ASSERT_LT(ivs[i].lo, ivs[i].hi);
      if (i > 0) {
        ASSERT_LT(ivs[i - 1].hi, ivs[i].lo);
      }
    }
  }
}

}  // namespace
}  // namespace vod
