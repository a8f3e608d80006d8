// Replication robustness: the figure-level conclusions must hold for every
// seed, not just the benchmark's fixed one, and independent replications
// must agree within their confidence intervals.
#include <gtest/gtest.h>

#include "core/dhb_simulator.h"
#include "protocols/fast_broadcasting.h"
#include "protocols/on_demand.h"
#include "sim/stats.h"

namespace vod {
namespace {

SlottedSimConfig sim_for(double rate, uint64_t seed) {
  SlottedSimConfig sim;
  sim.requests_per_hour = rate;
  sim.warmup_hours = 4.0;
  sim.measured_hours = 60.0;
  sim.seed = seed;
  return sim;
}

TEST(Replication, DhbBelowUdForEverySeed) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const SlottedSimResult dhb =
        run_dhb_simulation(DhbConfig{}, sim_for(20.0, seed));
    const SlottedSimResult ud =
        run_on_demand_simulation(FbMapping(99), sim_for(20.0, seed));
    EXPECT_LT(dhb.avg_streams, ud.avg_streams) << "seed " << seed;
  }
}

TEST(Replication, DhbBelowNpbLevelForEverySeed) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const SlottedSimResult r =
        run_dhb_simulation(DhbConfig{}, sim_for(300.0, seed));
    EXPECT_LT(r.avg_streams, 6.0) << "seed " << seed;
    EXPECT_LE(r.max_streams, 8.0) << "seed " << seed;
  }
}

TEST(Replication, SeedVarianceIsSmall) {
  RunningStats across;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    across.add(
        run_dhb_simulation(DhbConfig{}, sim_for(50.0, seed)).avg_streams);
  }
  // Sixty measured hours per replication: the across-seed spread should be
  // a couple of percent of the mean.
  EXPECT_LT(across.stddev() / across.mean(), 0.05);
}

TEST(Replication, BatchMeansCiCoversIndependentReplications) {
  // The CI reported by one long run should be consistent with the
  // across-seed mean: the grand mean of 8 replications must fall inside
  // (or very near) each run's 95% interval most of the time.
  std::vector<SlottedSimResult> runs;
  RunningStats grand;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    runs.push_back(run_dhb_simulation(DhbConfig{}, sim_for(50.0, seed)));
    grand.add(runs.back().avg_streams);
  }
  int covered = 0;
  for (const SlottedSimResult& r : runs) {
    if (grand.mean() >= r.avg_ci.lo() - 0.05 &&
        grand.mean() <= r.avg_ci.hi() + 0.05) {
      ++covered;
    }
  }
  EXPECT_GE(covered, 6);  // 95% nominal, slack for batch correlation
}

}  // namespace
}  // namespace vod
