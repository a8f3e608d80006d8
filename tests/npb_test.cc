#include "protocols/npb.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "protocols/fast_broadcasting.h"
#include "protocols/harmonic.h"

namespace vod {
namespace {

TEST(Npb, ReproducesFigure2Headline) {
  // "The NPB protocol can pack nine segments into three streams while the
  // FB protocol can only pack seven segments."
  EXPECT_EQ(NpbMapping::capacity(3), 9);
  EXPECT_EQ(FbMapping::capacity(3), 7);
}

TEST(Npb, SmallCapacities) {
  EXPECT_EQ(NpbMapping::capacity(1), 1);
  EXPECT_EQ(NpbMapping::capacity(2), 3);
  // Larger stream counts must beat FB decisively.
  EXPECT_GT(NpbMapping::capacity(4), FbMapping::capacity(4));
  EXPECT_GT(NpbMapping::capacity(5), FbMapping::capacity(5));
}

TEST(Npb, CapacityBoundedByHarmonicLimit) {
  for (int k = 1; k <= 6; ++k) {
    EXPECT_LE(NpbMapping::capacity(k), NpbMapping::harmonic_capacity(k)) << k;
    EXPECT_GE(NpbMapping::capacity(k), FbMapping::capacity(k)) << k;
  }
}

TEST(Npb, HarmonicCapacityValues) {
  // max n with H_n <= k.
  EXPECT_EQ(NpbMapping::harmonic_capacity(1), 1);
  EXPECT_EQ(NpbMapping::harmonic_capacity(2), 3);
  EXPECT_EQ(NpbMapping::harmonic_capacity(3), 10);
  EXPECT_EQ(NpbMapping::harmonic_capacity(4), 30);
  EXPECT_EQ(NpbMapping::harmonic_capacity(5), 82);
  EXPECT_GT(harmonic_number(99), 5.0);  // 99 segments need >= 6 streams
}

TEST(Npb, StreamsForPaperConfiguration) {
  // Figures 7/8: NPB with 99 segments runs at 6 streams — one below FB's 7
  // and above DHB's ~H_99 ~ 5.18 saturation average.
  EXPECT_EQ(NpbMapping::streams_for(99), 6);
  EXPECT_EQ(NpbMapping::streams_for(9), 3);
  EXPECT_EQ(NpbMapping::streams_for(10), 4);
  EXPECT_EQ(NpbMapping::streams_for(1), 1);
}

TEST(Npb, BuildFailsBeyondCapacity) {
  EXPECT_FALSE(NpbMapping::build(3, NpbMapping::capacity(3) + 1).has_value());
  EXPECT_TRUE(NpbMapping::build(3, NpbMapping::capacity(3)).has_value());
}

TEST(Npb, PeriodsWithinDeadline) {
  const auto m = NpbMapping::build(3, 9);
  ASSERT_TRUE(m.has_value());
  for (Segment j = 1; j <= 9; ++j) {
    EXPECT_LE(m->period_of(j), j) << "S" << j;
    EXPECT_GE(m->period_of(j), 1) << "S" << j;
  }
  // S1 must own a whole stream.
  EXPECT_EQ(m->period_of(1), 1);
}

TEST(Npb, SegmentAtIsConsistentWithPeriods) {
  const auto m = NpbMapping::build(3, 9);
  ASSERT_TRUE(m.has_value());
  // Each segment appears exactly every period_of(j) slots on its stream.
  std::vector<Slot> last(10, 0);
  for (Slot t = 1; t <= 3 * m->cycle_length(); ++t) {
    for (int k = 0; k < 3; ++k) {
      const Segment j = m->segment_at(k, t);
      if (j == 0) continue;
      if (last[static_cast<size_t>(j)] != 0) {
        EXPECT_EQ(t - last[static_cast<size_t>(j)], m->period_of(j));
      }
      last[static_cast<size_t>(j)] = t;
    }
  }
}

// A stream's largest period, kept by build(), equals the largest period
// among the segments it carries in slots 1..n: every segment's period is
// at most its index, so that window holds at least one copy of each.
TEST(Npb, StreamMaxPeriodEqualsTheSlotScan) {
  for (int n = 1; n <= 300; ++n) {
    const auto m = NpbMapping::build(NpbMapping::streams_for(n), n);
    ASSERT_TRUE(m.has_value()) << "n = " << n;
    for (int k = 0; k < m->streams(); ++k) {
      Slot scanned = 0;
      for (Slot t = 1; t <= n; ++t) {
        const Segment j = m->segment_at(k, t);
        if (j != 0) scanned = std::max(scanned, m->period_of(j));
      }
      ASSERT_EQ(m->stream_max_period(k), scanned)
          << "n = " << n << ", stream " << k;
    }
  }
}

class NpbValidationTest : public ::testing::TestWithParam<int> {};

TEST_P(NpbValidationTest, AnalyticValidationAtCapacity) {
  const int k = GetParam();
  const auto m = NpbMapping::build(k, NpbMapping::capacity(k));
  ASSERT_TRUE(m.has_value());
  const MappingValidation v = m->validate();
  EXPECT_TRUE(v.ok) << v.error;
}

TEST_P(NpbValidationTest, GenericValidatorAgreesWhenCycleIsSmall) {
  const int k = GetParam();
  const auto m = NpbMapping::build(k, NpbMapping::capacity(k));
  ASSERT_TRUE(m.has_value());
  if (m->cycle_length() > 50000) GTEST_SKIP() << "cycle too long to unroll";
  const MappingValidation v = validate_mapping(*m);
  EXPECT_TRUE(v.ok) << v.error;
}

INSTANTIATE_TEST_SUITE_P(StreamCounts, NpbValidationTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6),
                         [](const auto& param_info) {
                           return "k" + std::to_string(param_info.param);
                         });

TEST(Npb, PartialLoadBelowCapacityIsValid) {
  // The Figure 7/8 configuration: 99 segments on 6 streams (below the
  // packer's capacity) must still validate.
  const auto m = NpbMapping::build(6, 99);
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(m->validate().ok);
  EXPECT_EQ(m->streams(), 6);
  EXPECT_EQ(m->num_segments(), 99);
}

TEST(Npb, FirstOccurrencesMeetDeadlines) {
  const auto m = NpbMapping::build(3, 9);
  ASSERT_TRUE(m.has_value());
  for (Slot arrival : {0, 1, 2, 3, 11, 25}) {
    const std::vector<Slot> occ = first_occurrences(*m, arrival);
    for (Segment j = 1; j <= 9; ++j) {
      EXPECT_LE(occ[static_cast<size_t>(j)], arrival + j)
          << "S" << j << " arrival " << arrival;
    }
  }
}

}  // namespace
}  // namespace vod
