#include "protocols/on_demand.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "protocols/fast_broadcasting.h"
#include "protocols/npb.h"
#include "protocols/skyscraper.h"
#include "protocols/ud.h"
#include "schedule/bandwidth_meter.h"
#include "schedule/slot_math.h"
#include "sim/random.h"

namespace vod {
namespace {

SlottedSimConfig quick_sim(double rate, int n = 99) {
  SlottedSimConfig sim;
  sim.video.num_segments = n;
  sim.requests_per_hour = rate;
  sim.warmup_hours = 4.0;
  sim.measured_hours = 120.0;
  return sim;
}

class OnDemandFbTest : public ::testing::TestWithParam<double> {};

// On-demand FB *is* the UD protocol: the generic simulator must match the
// UD closed form at every rate.
TEST_P(OnDemandFbTest, MatchesUdClosedForm) {
  const double rate = GetParam();
  SlottedSimConfig sim = quick_sim(rate);
  if (rate < 5.0) sim.measured_hours = 400.0;
  const FbMapping fb(99);
  const SlottedSimResult r = run_on_demand_simulation(fb, sim);
  const double expected = ud_expected_bandwidth(sim.video, rate);
  EXPECT_NEAR(r.avg_streams, expected, std::max(0.1, 0.05 * expected));
}

INSTANTIATE_TEST_SUITE_P(Rates, OnDemandFbTest,
                         ::testing::Values(1.0, 10.0, 100.0, 1000.0),
                         [](const auto& param_info) {
                           return "r" +
                                  std::to_string(static_cast<int>(param_info.param));
                         });

// UD's own formulation (Pâris, Carter & Long): FB stream k transmits in
// slot t iff a request arrived within its last rotation_length(k) slots.
// The test oracle the generic prev-occurrence driver must match exactly
// over FbMapping; same slot clock, arrivals and meter as that driver.
SlottedSimResult ud_rotation_rule(const SlottedSimConfig& sim,
                                  ArrivalProcess& arrivals) {
  const FbMapping fb(sim.video.num_segments);
  const double d = sim.video.slot_duration_s();
  const uint64_t warmup_slots = horizon_slots(sim.warmup_hours, d);
  const uint64_t total_slots =
      warmup_slots + horizon_slots(sim.measured_hours, d);
  BandwidthMeter meter(
      warmup_slots, std::max<uint64_t>(1, (total_slots - warmup_slots) / 32));
  SlottedSimResult result;
  Slot last_arrival = std::numeric_limits<Slot>::min() / 2;
  double next_arrival = arrivals.next();
  for (uint64_t step = 1; step <= total_slots; ++step) {
    const Slot t = static_cast<Slot>(step);
    int busy = 0;
    for (int k = 0; k < fb.streams(); ++k) {
      if (last_arrival >= t - static_cast<Slot>(fb.rotation_length(k))) {
        ++busy;
      }
    }
    meter.add_slot(busy);
    const double slot_end = static_cast<double>(t) * d;
    while (next_arrival < slot_end) {
      last_arrival = t;
      if (step > warmup_slots) ++result.requests;
      next_arrival = arrivals.next();
    }
  }
  result.avg_streams = meter.mean_streams();
  result.max_streams = meter.max_streams();
  result.avg_ci = meter.mean_ci95();
  return result;
}

TEST(OnDemand, FbMatchesDedicatedUdSimulator) {
  for (int n : {1, 7, 15, 27, 99, 137}) {
    for (double rate : {0.0, 0.5, 5.0, 30.0, 300.0, 3000.0}) {
      for (double warmup : {0.0, 4.0}) {
        SlottedSimConfig sim = quick_sim(rate, n);
        sim.warmup_hours = warmup;
        sim.measured_hours = 40.0;
        PoissonProcess arrivals(per_hour(rate), Rng(sim.seed));
        const SlottedSimResult generic =
            run_on_demand_simulation(FbMapping(n), sim);
        const SlottedSimResult oracle = ud_rotation_rule(sim, arrivals);
        SCOPED_TRACE(testing::Message() << "n=" << n << " rate=" << rate
                                        << " warmup=" << warmup);
        EXPECT_EQ(generic.avg_streams, oracle.avg_streams);
        EXPECT_EQ(generic.max_streams, oracle.max_streams);
        EXPECT_EQ(generic.avg_ci.mean, oracle.avg_ci.mean);
        EXPECT_EQ(generic.avg_ci.half_width, oracle.avg_ci.half_width);
        EXPECT_EQ(generic.avg_ci.batches, oracle.avg_ci.batches);
        EXPECT_EQ(generic.requests, oracle.requests);
      }
    }
  }
}

TEST(OnDemand, NeverExceedsMappingStreams) {
  const SbMapping sb(27);
  SlottedSimConfig sim = quick_sim(2000.0, 27);
  const SlottedSimResult r = run_on_demand_simulation(sb, sim);
  EXPECT_LE(r.max_streams, static_cast<double>(sb.streams()));
  EXPECT_NEAR(r.avg_streams, static_cast<double>(sb.streams()), 0.05);
}

TEST(OnDemand, DynamicSkyscraperCostsMoreThanDynamicNpb) {
  // DSB inherits SB's lower packing density, so its on-demand variant
  // needs more server bandwidth than on-demand NPB for the same segment
  // count — the §2 comparison ("it also requires a higher server
  // bandwidth").
  const int n = 27;  // SB: 6 streams; NPB: fewer
  const SbMapping sb(n);
  const auto npb = NpbMapping::build(NpbMapping::streams_for(n), n);
  ASSERT_TRUE(npb.has_value());
  ASSERT_GT(sb.streams(), npb->streams());
  const SlottedSimConfig sim = quick_sim(500.0, n);
  const SlottedSimResult dsb = run_on_demand_simulation(sb, sim);
  const SlottedSimResult dnpb = run_on_demand_simulation(*npb, sim);
  EXPECT_GT(dsb.avg_streams, dnpb.avg_streams);
}

TEST(OnDemand, IdleSystemIsSilent) {
  const FbMapping fb(15);
  SlottedSimConfig sim = quick_sim(1.0, 15);
  sim.warmup_hours = 0.0;
  sim.measured_hours = 1.0;
  ScriptedArrivals arrivals({});
  const SlottedSimResult r = run_on_demand_simulation(fb, sim, arrivals);
  EXPECT_DOUBLE_EQ(r.avg_streams, 0.0);
}

TEST(OnDemand, OneRequestCostsOneVideoOnAnyMapping) {
  for (int n : {15, 31}) {
    const FbMapping fb(n);
    SlottedSimConfig sim = quick_sim(1.0, n);
    sim.warmup_hours = 0.0;
    sim.measured_hours = 5.0;
    ScriptedArrivals arrivals({10.0});
    const SlottedSimResult r = run_on_demand_simulation(fb, sim, arrivals);
    const double d = sim.video.slot_duration_s();
    const double busy_slots = r.avg_streams * sim.measured_hours * 3600.0 / d;
    EXPECT_NEAR(busy_slots, static_cast<double>(n), 1.5) << n;
  }
}

TEST(OnDemandDeath, RejectsAChannelCap) {
  SlottedSimConfig sim = quick_sim(10.0, 15);
  sim.channel_cap = 4;
  EXPECT_DEATH(run_on_demand_simulation(FbMapping(15), sim),
               "a channel cap needs DHB's bounded admission");
}

}  // namespace
}  // namespace vod
