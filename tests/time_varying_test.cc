// Time-varying demand through the public drivers — the paper's §1
// motivation ("the frequency of requests for any given video is likely to
// vary widely with the time of the day") exercised end to end.
#include <gtest/gtest.h>

#include <cmath>

#include "core/dhb_simulator.h"
#include "protocols/fast_broadcasting.h"
#include "protocols/npb.h"
#include "protocols/on_demand.h"
#include "sim/arrival_process.h"

namespace vod {
namespace {

SlottedSimConfig day_sim() {
  SlottedSimConfig sim;
  sim.warmup_hours = 24.0;   // one warmup day
  sim.measured_hours = 96.0; // four measured days
  return sim;
}

TEST(TimeVarying, DhbTracksDailyDemand) {
  NonHomogeneousPoissonProcess arrivals(daily_demand_curve(2.0, 150.0),
                                        per_hour(150.0), Rng(1));
  const SlottedSimResult r =
      run_dhb_simulation(DhbConfig{}, day_sim(), arrivals);
  EXPECT_TRUE(r.playout_ok);
  // Day-average sits well below both the peak-rate steady state (~5.2) and
  // NPB's always-on level.
  EXPECT_LT(r.avg_streams, 5.0);
  EXPECT_LT(r.avg_streams,
            static_cast<double>(NpbMapping::streams_for(99)));
  EXPECT_GT(r.avg_streams, 1.0);
}

TEST(TimeVarying, DhbBeatsUdOnTheSameDay) {
  NonHomogeneousPoissonProcess a1(daily_demand_curve(2.0, 150.0),
                                  per_hour(150.0), Rng(5));
  const SlottedSimResult dhb = run_dhb_simulation(DhbConfig{}, day_sim(), a1);
  NonHomogeneousPoissonProcess a2(daily_demand_curve(2.0, 150.0),
                                  per_hour(150.0), Rng(5));
  const SlottedSimResult ud =
      run_on_demand_simulation(FbMapping(99), day_sim(), a2);
  EXPECT_LT(dhb.avg_streams, ud.avg_streams);
}

TEST(TimeVarying, OnDemandMappingHandlesBursts) {
  // A static mapping's on-demand variant under an on/off day: cost follows
  // demand, never exceeding the mapping's stream budget.
  auto onoff = [](double t) {
    const double tod = std::fmod(t, 24.0 * 3600.0);
    return tod > 18.0 * 3600.0 ? per_hour(300.0) : per_hour(0.5);
  };
  NonHomogeneousPoissonProcess arrivals(onoff, per_hour(300.0), Rng(9));
  const auto mapping = NpbMapping::build(6, 99);
  ASSERT_TRUE(mapping.has_value());
  const SlottedSimResult r =
      run_on_demand_simulation(*mapping, day_sim(), arrivals);
  EXPECT_LE(r.max_streams, 6.0);
  EXPECT_LT(r.avg_streams, 4.0);  // idle 18 h/day drags the average down
  EXPECT_GT(r.avg_streams, 0.5);
}

TEST(TimeVarying, DeterministicAcrossRuns) {
  auto make = [] {
    return NonHomogeneousPoissonProcess(daily_demand_curve(1.0, 50.0),
                                        per_hour(50.0), Rng(42));
  };
  auto a = make();
  auto b = make();
  const SlottedSimResult ra = run_dhb_simulation(DhbConfig{}, day_sim(), a);
  const SlottedSimResult rb = run_dhb_simulation(DhbConfig{}, day_sim(), b);
  EXPECT_DOUBLE_EQ(ra.avg_streams, rb.avg_streams);
  EXPECT_EQ(ra.requests, rb.requests);
}

}  // namespace
}  // namespace vod
