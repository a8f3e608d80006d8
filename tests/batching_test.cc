#include "protocols/batching.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/qoe.h"
#include "obs/trace.h"

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

TEST(Batching, QoeRecordsEachRequestsWaitToTheBoundary) {
  // Batching is a protocol whose startup wait varies: a client waits for
  // the next batch boundary, recorded as the fraction of an interval it
  // waited. It never misses a deadline once its stream starts.
  BatchingConfig c = quick(20.0);
  c.warmup_hours = 0.0;
  c.measured_hours = 3.0;
  ScriptedArrivals arrivals({10.0, 10.5, 500.0});
  obs::QoeShard qoe;
  obs::ObsSink sink{nullptr, nullptr, &qoe, nullptr};
  BatchingResult r;
  {
    obs::ScopedObsSink scoped(&sink);
    r = run_batching_simulation(c, arrivals);
  }
  ASSERT_EQ(r.requests, 3u);
#ifndef VOD_OBSERVE_DISABLED
  const double beta = c.batch_interval_s;
  double want = 0.0;
  for (double t : {10.0, 10.5, 500.0}) {
    want += (std::ceil(t / beta) * beta - t) / beta;
  }
  ASSERT_EQ(qoe.total_requests(), 3u);
  ASSERT_EQ(qoe.groups().size(), 1u);
  const obs::QoeGroup& group = qoe.groups().front();
  EXPECT_DOUBLE_EQ(group.wait.sum(), want);
  EXPECT_EQ(group.late_segments, 0u);
#endif
}

TEST(Batching, QoeWaitQuantilesResolveFractionsOfAnInterval) {
  // One request per interval, waiting k/100 of it for k = 0..99 — the
  // spread Poisson arrivals give. The wait histogram must tell them apart:
  // its p50 and p99 are bin upper edges within one bin width of the true
  // quantiles (the smallest wait with at least that fraction at or below).
  BatchingConfig c = quick(20.0);
  c.warmup_hours = 0.0;
  c.measured_hours = 3.0;
  const double beta = c.batch_interval_s;
  std::vector<double> times;
  std::vector<double> waits;
  for (int k = 0; k < 100; ++k) {
    const double t = (k + 1) * beta - (k / 100.0) * beta;
    times.push_back(t);
    waits.push_back((std::ceil(t / beta) * beta - t) / beta);
  }
  std::sort(waits.begin(), waits.end());
  ScriptedArrivals arrivals(times);
  obs::QoeShard qoe;
  obs::ObsSink sink{nullptr, nullptr, &qoe, nullptr};
  BatchingResult r;
  {
    obs::ScopedObsSink scoped(&sink);
    r = run_batching_simulation(c, arrivals);
  }
  ASSERT_EQ(r.requests, 100u);
#ifndef VOD_OBSERVE_DISABLED
  ASSERT_EQ(qoe.groups().size(), 1u);
  const obs::ExemplarHistogram& wait = qoe.groups().front().wait;
  ASSERT_EQ(wait.count(), 100u);
  const double width = wait.histogram().bin_width();
  const double p50 = wait.quantile(0.50);
  const double p99 = wait.quantile(0.99);
  EXPECT_LT(p50, p99);
  EXPECT_NEAR(p50, waits[49], width);
  EXPECT_NEAR(p99, waits[98], width);
#endif
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
