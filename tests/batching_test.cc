#include "protocols/batching.h"

#include <gtest/gtest.h>

#include <cmath>

namespace vod {
namespace {

BatchingConfig quick(double rate) {
  BatchingConfig c;
  c.requests_per_hour = rate;
  c.warmup_hours = 2.0;
  c.measured_hours = 200.0;
  return c;
}

TEST(Batching, ClosedFormLimits) {
  BatchingConfig c = quick(1e9);
  // Saturation: a stream every interval -> D / beta streams.
  EXPECT_NEAR(batching_expected_bandwidth(c),
              c.video_duration_s / c.batch_interval_s, 1e-3);
  c.requests_per_hour = 1e-9;
  EXPECT_NEAR(batching_expected_bandwidth(c), 0.0, 1e-6);
}

class BatchingClosedFormTest : public ::testing::TestWithParam<double> {};

TEST_P(BatchingClosedFormTest, SimulationMatchesClosedForm) {
  BatchingConfig c = quick(GetParam());
  if (GetParam() < 5.0) c.measured_hours = 600.0;
  const BatchingResult r = run_batching_simulation(c);
  const double expected = batching_expected_bandwidth(c);
  EXPECT_NEAR(r.avg_streams, expected, std::max(0.06, 0.05 * expected));
}

INSTANTIATE_TEST_SUITE_P(Rates, BatchingClosedFormTest,
                         ::testing::Values(1.0, 10.0, 100.0, 1000.0),
                         [](const auto& param_info) {
                           return "r" +
                                  std::to_string(static_cast<int>(param_info.param));
                         });

TEST(Batching, EveryRequestIsServedWithinInterval) {
  BatchingConfig c = quick(20.0);
  c.warmup_hours = 0.0;
  c.measured_hours = 3.0;
  ScriptedArrivals arrivals({10.0, 10.5, 500.0});
  const BatchingResult r = run_batching_simulation(c, arrivals);
  EXPECT_EQ(r.requests, 3u);
  // First two share one batch; the third gets its own.
  EXPECT_EQ(r.streams_started, 2u);
}

TEST(Batching, NoArrivalsNoStreams) {
  BatchingConfig c = quick(1.0);
  c.warmup_hours = 0.0;
  c.measured_hours = 2.0;
  ScriptedArrivals arrivals({});
  const BatchingResult r = run_batching_simulation(c, arrivals);
  EXPECT_EQ(r.streams_started, 0u);
  EXPECT_DOUBLE_EQ(r.avg_streams, 0.0);
  // A zero-length window measures no bandwidth: 0, not 0/0.
  c.measured_hours = 0.0;
  ScriptedArrivals none({});
  EXPECT_DOUBLE_EQ(run_batching_simulation(c, none).avg_streams, 0.0);
}

TEST(Batching, SaturatesAtDOverBeta) {
  BatchingConfig c = quick(5000.0);
  const BatchingResult r = run_batching_simulation(c);
  const double ceiling = c.video_duration_s / c.batch_interval_s;
  EXPECT_NEAR(r.avg_streams, ceiling, 0.02 * ceiling);
  EXPECT_LE(r.max_streams, std::ceil(ceiling) + 1.0);
}

TEST(Batching, MuchWorseThanSegmentProtocolsAtSaturation) {
  // Batching whole videos saturates at ~99 streams with the paper's wait
  // bound, two orders above DHB's ~5.2 — why segmentation matters.
  BatchingConfig c = quick(5000.0);
  const BatchingResult r = run_batching_simulation(c);
  EXPECT_GT(r.avg_streams, 50.0);
}

TEST(Batching, DeterministicForSeed) {
  const BatchingResult a = run_batching_simulation(quick(10.0));
  const BatchingResult b = run_batching_simulation(quick(10.0));
  EXPECT_DOUBLE_EQ(a.avg_streams, b.avg_streams);
}

}  // namespace
}  // namespace vod
