#include "protocols/ud.h"

#include <gtest/gtest.h>

#include <cmath>

#include "protocols/fast_broadcasting.h"
#include "protocols/on_demand.h"

namespace vod {
namespace {

SlottedSimConfig quick_sim(double rate) {
  SlottedSimConfig sim;
  sim.requests_per_hour = rate;
  sim.warmup_hours = 4.0;
  sim.measured_hours = 100.0;
  return sim;
}

class UdClosedFormTest : public ::testing::TestWithParam<double> {};

// The simulator must agree with the closed form
// sum_j (1 - exp(-lambda d len_j)) derived from the on-demand FB model.
TEST_P(UdClosedFormTest, SimulationMatchesExpectation) {
  const double rate = GetParam();
  SlottedSimConfig sim = quick_sim(rate);
  sim.measured_hours = rate < 5.0 ? 400.0 : 150.0;
  const SlottedSimResult r = run_on_demand_simulation(FbMapping(99), sim);
  const double expected = ud_expected_bandwidth(sim.video, rate);
  EXPECT_NEAR(r.avg_streams, expected, std::max(0.1, 0.05 * expected))
      << rate << "/h";
}

INSTANTIATE_TEST_SUITE_P(Rates, UdClosedFormTest,
                         ::testing::Values(1.0, 5.0, 20.0, 100.0, 500.0),
                         [](const auto& param_info) {
                           return "r" +
                                  std::to_string(static_cast<int>(param_info.param));
                         });

TEST(Ud, SaturatesToFbStreamCount) {
  // "Above 200 requests per hour, all channels become saturated and the UD
  // reverts to a conventional FB protocol."
  const SlottedSimResult r =
      run_on_demand_simulation(FbMapping(99), quick_sim(2000.0));
  EXPECT_NEAR(r.avg_streams, 7.0, 0.05);
  EXPECT_DOUBLE_EQ(r.max_streams, 7.0);
}

TEST(Ud, ClosedFormLimits) {
  VideoParams video;
  // Low-rate limit: cost per isolated request is one whole video, so the
  // average tends to lambda * D.
  const double rate = 0.05;  // requests/hour
  const double lambda_d = rate / 3600.0 * video.duration_s;
  EXPECT_NEAR(ud_expected_bandwidth(video, rate), lambda_d, 0.02 * lambda_d);
  // High-rate limit: all 7 FB streams busy.
  EXPECT_NEAR(ud_expected_bandwidth(video, 1e6), 7.0, 1e-6);
}

TEST(Ud, ClosedFormMonotone) {
  VideoParams video;
  double prev = 0.0;
  for (double rate : {1.0, 2.0, 5.0, 20.0, 100.0, 1000.0}) {
    const double b = ud_expected_bandwidth(video, rate);
    EXPECT_GT(b, prev);
    prev = b;
  }
}

TEST(Ud, MaxBandwidthNeverExceedsFb) {
  for (double rate : {1.0, 50.0, 800.0}) {
    const SlottedSimResult r =
        run_on_demand_simulation(FbMapping(99), quick_sim(rate));
    EXPECT_LE(r.max_streams, 7.0) << rate;
  }
}

TEST(Ud, NoArrivalsNoBandwidth) {
  SlottedSimConfig sim;
  sim.warmup_hours = 0.0;
  sim.measured_hours = 1.0;
  ScriptedArrivals arrivals({});
  const SlottedSimResult r =
      run_on_demand_simulation(FbMapping(99), sim, arrivals);
  EXPECT_DOUBLE_EQ(r.avg_streams, 0.0);
}

TEST(Ud, SingleRequestCostsOneVideo) {
  // One isolated request: every stream j stays busy for len_j slots, so
  // total busy slots = sum len_j = n = one whole video worth of data.
  SlottedSimConfig sim;
  sim.warmup_hours = 0.0;
  sim.measured_hours = 5.0;
  ScriptedArrivals arrivals({10.0});
  const SlottedSimResult r =
      run_on_demand_simulation(FbMapping(99), sim, arrivals);
  const double d = sim.video.slot_duration_s();
  const double busy_slots = r.avg_streams * sim.measured_hours * 3600.0 / d;
  EXPECT_NEAR(busy_slots, 99.0, 1.5);
}

TEST(Ud, DeterministicForSeed) {
  const SlottedSimResult a =
      run_on_demand_simulation(FbMapping(99), quick_sim(10.0));
  const SlottedSimResult b =
      run_on_demand_simulation(FbMapping(99), quick_sim(10.0));
  EXPECT_DOUBLE_EQ(a.avg_streams, b.avg_streams);
}

}  // namespace
}  // namespace vod
