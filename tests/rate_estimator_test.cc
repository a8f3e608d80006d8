#include "sim/rate_estimator.h"

#include <gtest/gtest.h>

#include <cmath>

namespace vod {
namespace {

EwmaConfig cfg(double half_life) {
  EwmaConfig c;
  c.half_life_slots = half_life;
  return c;
}

TEST(RateEstimator, ZeroObservedSlotsIsExactlyZero) {
  // The degenerate-config contract: no slots fed -> estimate 0.0, not NaN,
  // not a division by zero.
  EwmaRateEstimator e(cfg(64.0));
  EXPECT_DOUBLE_EQ(e.estimate(), 0.0);
  EXPECT_FALSE(std::isnan(e.estimate()));
}

TEST(RateEstimator, FirstSlotSeedsTheEstimate) {
  // A video that starts hot must not spend half a half-life looking cold:
  // the first observation is adopted wholesale.
  EwmaRateEstimator e(cfg(64.0));
  e.on_slot(5);
  EXPECT_DOUBLE_EQ(e.estimate(), 5.0);
}

TEST(RateEstimator, DeadVideoStaysAtZeroForever) {
  EwmaRateEstimator e(cfg(8.0));
  for (int i = 0; i < 1000; ++i) {
    e.on_slot(0);
    EXPECT_DOUBLE_EQ(e.estimate(), 0.0);
  }
}

TEST(RateEstimator, HalfLifeMeansHalfTheWeight) {
  // Seed at 8, then feed zeros: after exactly H slots the estimate must be
  // 8 * (1 - alpha)^H = 8 * 2^(-1) = 4.
  const double h = 16.0;
  EwmaRateEstimator e(cfg(h));
  e.on_slot(8);
  for (int i = 0; i < static_cast<int>(h); ++i) e.on_slot(0);
  EXPECT_NEAR(e.estimate(), 4.0, 1e-9);
}

TEST(RateEstimator, ConvergesToConstantRate) {
  EwmaRateEstimator e(cfg(8.0));
  for (int i = 0; i < 200; ++i) e.on_slot(3);
  EXPECT_NEAR(e.estimate(), 3.0, 1e-9);
}

TEST(RateEstimator, ZeroSlotsAreObservationsNotNoOps) {
  // Idle slots must decay the estimate — a video that went cold has to
  // look cold, or the controller never switches back down.
  EwmaRateEstimator e(cfg(4.0));
  e.on_slot(10);
  const double seeded = e.estimate();
  e.on_slot(0);
  EXPECT_LT(e.estimate(), seeded);
  EXPECT_GT(e.estimate(), 0.0);
}

TEST(RateEstimator, NeverNegativeNeverNaN) {
  EwmaRateEstimator e(cfg(2.0));
  for (int i = 0; i < 100; ++i) {
    e.on_slot(i % 7 == 0 ? 1000u : 0u);
    EXPECT_GE(e.estimate(), 0.0);
    EXPECT_FALSE(std::isnan(e.estimate()));
  }
}

TEST(RateEstimatorDeath, RejectsNonPositiveHalfLife) {
  EXPECT_DEATH(EwmaRateEstimator(cfg(0.0)), "");
  EXPECT_DEATH(EwmaRateEstimator(cfg(-1.0)), "");
}

}  // namespace
}  // namespace vod
