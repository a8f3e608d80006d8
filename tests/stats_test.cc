#include "sim/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "sim/random.h"
#include "util/check.h"

namespace vod {
namespace {

[[noreturn]] void throwing_handler(const char* expr, const char*, int,
                                   const char*) {
  throw std::runtime_error(std::string("VOD_CHECK fired: ") + expr);
}

class ScopedThrowingHandler {
 public:
  ScopedThrowingHandler()
      : previous_(set_check_failure_handler(&throwing_handler)) {}
  ~ScopedThrowingHandler() { set_check_failure_handler(previous_); }

 private:
  CheckFailureHandler previous_;
};

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, NumericallyStableForLargeOffsets) {
  RunningStats s;
  const double base = 1e12;
  for (int i = 0; i < 1000; ++i) s.add(base + (i % 2));
  EXPECT_NEAR(s.mean(), base + 0.5, 1e-3);
  EXPECT_NEAR(s.variance(), 0.25, 0.01);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(5);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(3.0, 2.0);
    all.add(v);
    (i < 400 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(RunningStats, MergeWithEmptyKeepsMinMax) {
  // Merging an empty accumulator must not let its +/-infinity sentinels
  // leak into min()/max() (min() reports 0.0 only while count() == 0).
  RunningStats a, b;
  a.add(-3.0);
  a.add(7.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.min(), -3.0);
  EXPECT_DOUBLE_EQ(a.max(), 7.0);
}

TEST(RunningStats, MinMaxAcrossDisjointMerges) {
  // Extremes live in different operands: the merged accumulator must take
  // min from one side and max from the other.
  RunningStats a, b;
  a.add(10.0);
  a.add(20.0);
  b.add(-5.0);
  b.add(15.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.min(), -5.0);
  EXPECT_DOUBLE_EQ(a.max(), 20.0);
}

TEST(RunningStats, MergeChainMatchesSequential) {
  // Shard-style folding (many partials merged in order) matches one
  // sequential pass — the pattern the engine's metric merge relies on.
  Rng rng(11);
  RunningStats all;
  RunningStats parts[4];
  for (int i = 0; i < 800; ++i) {
    const double v = rng.normal(0.0, 5.0);
    all.add(v);
    parts[i % 4].add(v);
  }
  RunningStats folded;
  for (const RunningStats& p : parts) folded.merge(p);
  EXPECT_EQ(folded.count(), all.count());
  EXPECT_NEAR(folded.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(folded.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(folded.min(), all.min());
  EXPECT_DOUBLE_EQ(folded.max(), all.max());
}

TEST(RunningStats, AddN) {
  RunningStats s;
  s.add_n(3.0, 4);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(IntervalLoad, ClipsAtBothWindowEdges) {
  IntervalLoad load(10.0, 20.0);
  load.add(5.0, 12.0);   // counts [10, 12)
  load.add(11.0, 30.0);  // counts [11, 20)
  load.add(0.0, 10.0);   // ends where the window starts
  load.add(20.0, 25.0);  // starts where the window ends
  EXPECT_DOUBLE_EQ(load.mean(), (2.0 + 9.0) / 10.0);
  EXPECT_EQ(load.peak(), 2);  // both open over [11, 12)
}

TEST(IntervalLoad, TouchingIntervalsDoNotOverlap) {
  IntervalLoad load(0.0, 10.0);
  load.add(4.0, 8.0);
  load.add(0.0, 4.0);
  load.add(8.0, 10.0);
  EXPECT_DOUBLE_EQ(load.mean(), 1.0);
  EXPECT_EQ(load.peak(), 1);
}

TEST(IntervalLoad, EmptyWindowReadsZero) {
  IntervalLoad idle(0.0, 10.0);
  EXPECT_DOUBLE_EQ(idle.mean(), 0.0);
  EXPECT_EQ(idle.peak(), 0);
  IntervalLoad empty(5.0, 5.0);
  empty.add(0.0, 10.0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  EXPECT_EQ(empty.peak(), 0);
}

TEST(Histogram, CountsIntoBins) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(5.5);
  h.add(9.5);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bins()[0], 1u);
  EXPECT_EQ(h.bins()[5], 1u);
  EXPECT_EQ(h.bins()[9], 1u);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);
  h.add(50.0);
  EXPECT_EQ(h.bins()[0], 1u);
  EXPECT_EQ(h.bins()[9], 1u);
}

TEST(Histogram, QuantileMedian) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 1.5);
  EXPECT_NEAR(h.quantile(0.0), 0.0, 1.5);
}

TEST(Histogram, EmptyQuantileIsLo) {
  Histogram h(2.0, 4.0, 4);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  // Defined for every q, including both edges.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 2.0);
}

TEST(Histogram, QuantileEdgeSemantics) {
  // Samples occupy bins [3,4) and [7,8) of a ten-bin histogram: q = 0
  // reports the first occupied bin's lower edge (not bin 0's), q = 1 the
  // last occupied bin's upper edge (not hi()).
  Histogram h(0.0, 10.0, 10);
  h.add(3.5);
  h.add(7.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 8.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 4.0);  // first bin reaching half mass
}

TEST(Histogram, AddNMatchesRepeatedAdd) {
  Histogram a(0.0, 10.0, 10);
  Histogram b(0.0, 10.0, 10);
  a.add_n(4.5, 1000);
  for (int i = 0; i < 1000; ++i) b.add(4.5);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.bins(), b.bins());
}

TEST(Histogram, MergeAddsBins) {
  Histogram a(0.0, 10.0, 10);
  Histogram b(0.0, 10.0, 10);
  a.add(1.5);
  b.add(1.5);
  b.add(8.5);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.bins()[1], 2u);
  EXPECT_EQ(a.bins()[8], 1u);
}

TEST(Histogram, MergeRejectsMismatchedSpec) {
  ScopedThrowingHandler scoped;
  Histogram a(0.0, 10.0, 10);
  Histogram bad_range(0.0, 20.0, 10);
  Histogram bad_bins(0.0, 10.0, 20);
  EXPECT_THROW(a.merge(bad_range), std::runtime_error);
  EXPECT_THROW(a.merge(bad_bins), std::runtime_error);
}

}  // namespace
}  // namespace vod
