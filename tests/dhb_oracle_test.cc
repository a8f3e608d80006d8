// Differential testing: DhbScheduler against NaiveOracle (naive_oracle.h),
// an independent re-derivation of the Figure 6 algorithm built on naive
// data structures (a plain map of slot -> segment list, linear scans
// everywhere). Any divergence in the transmitted schedule under randomized
// workloads flags a bug in one of the two — and since the oracle is a
// direct transcription of the paper's pseudo-code, in practice in the
// optimized one.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/dhb.h"
#include "naive_oracle.h"
#include "sim/random.h"

namespace vod {
namespace {

void run_differential(int n, std::vector<int> periods, double load,
                      uint64_t seed, int steps) {
  DhbConfig config;
  config.num_segments = n;
  config.periods = periods;
  DhbScheduler fast(config);
  NaiveOracle oracle(n, periods, SlotHeuristic::kMinLoadLatest);
  Rng rng(seed);

  for (int step = 0; step < steps; ++step) {
    const std::span<const Segment> sent = fast.advance_slot_view();
    std::vector<Segment> a(sent.begin(), sent.end());
    std::vector<Segment> b = oracle.advance();
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a, b) << "divergence at slot " << step + 1 << " (n=" << n
                    << ", load=" << load << ")";
    for (uint64_t k = rng.poisson(load); k > 0; --k) {
      fast.on_request();
      oracle.admit_range(1, n);
    }
  }
}

TEST(DhbOracle, SmallSystemLightLoad) {
  run_differential(6, {}, 0.2, 11, 400);
}

TEST(DhbOracle, SmallSystemHeavyLoad) {
  run_differential(6, {}, 3.0, 12, 400);
}

TEST(DhbOracle, MediumSystemMixedLoad) {
  run_differential(25, {}, 0.7, 13, 300);
}

TEST(DhbOracle, PaperSizedSystem) {
  run_differential(99, {}, 1.2, 14, 150);
}

TEST(DhbOracle, WorkAheadPeriods) {
  // VBR-style periods with plateaus and delays.
  run_differential(10, {1, 3, 3, 5, 6, 6, 8, 10, 12, 14}, 0.8, 15, 300);
}

TEST(DhbOracle, TightPeriods) {
  // Deadline-critical periods (T[j] < j).
  run_differential(8, {1, 2, 2, 3, 3, 4, 4, 5}, 1.5, 16, 300);
}

}  // namespace
}  // namespace vod
