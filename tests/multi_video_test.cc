#include "server/multi_video.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <numeric>
#include <string>

#include "protocols/npb.h"

namespace vod {
namespace {

MultiVideoConfig quick(VideoPolicy policy, double total_rate) {
  MultiVideoConfig c;
  c.catalog_size = 10;
  c.total_requests_per_hour = total_rate;
  c.warmup_hours = 4.0;
  c.measured_hours = 60.0;
  c.policy = policy;
  return c;
}

TEST(MultiVideo, StaticPolicyIsConstant) {
  const MultiVideoConfig c = quick(VideoPolicy::kStatic, 100.0);
  const MultiVideoResult r = run_multi_video_simulation(c);
  const double per_video = static_cast<double>(NpbMapping::streams_for(99));
  EXPECT_DOUBLE_EQ(r.avg_streams, per_video * 10.0);
  EXPECT_DOUBLE_EQ(r.max_streams, per_video * 10.0);
}

TEST(MultiVideo, DhbBeatsStaticAtModerateLoad) {
  // 200 requests/hour across ten videos: even the top Zipf rank is far
  // from saturation, so the dynamic server needs much less bandwidth.
  const MultiVideoResult dhb =
      run_multi_video_simulation(quick(VideoPolicy::kDhb, 200.0));
  const MultiVideoResult fixed =
      run_multi_video_simulation(quick(VideoPolicy::kStatic, 200.0));
  EXPECT_LT(dhb.avg_streams, 0.7 * fixed.avg_streams);
}

TEST(MultiVideo, HybridBetweenTheTwo) {
  const MultiVideoResult dhb =
      run_multi_video_simulation(quick(VideoPolicy::kDhb, 200.0));
  const MultiVideoResult hybrid =
      run_multi_video_simulation(quick(VideoPolicy::kHybrid, 200.0));
  const MultiVideoResult fixed =
      run_multi_video_simulation(quick(VideoPolicy::kStatic, 200.0));
  EXPECT_GE(hybrid.avg_streams, dhb.avg_streams);
  EXPECT_LE(hybrid.avg_streams, fixed.avg_streams);
}

TEST(MultiVideo, PopularityFollowsZipf) {
  MultiVideoConfig c = quick(VideoPolicy::kDhb, 500.0);
  c.measured_hours = 120.0;
  const MultiVideoResult r = run_multi_video_simulation(c);
  // Rank 1 gets the most requests and the most bandwidth.
  EXPECT_GT(r.per_video_requests[0], r.per_video_requests[9]);
  EXPECT_GT(r.per_video_avg[0], r.per_video_avg[9]);
  const uint64_t total = std::accumulate(r.per_video_requests.begin(),
                                         r.per_video_requests.end(),
                                         static_cast<uint64_t>(0));
  EXPECT_EQ(total, r.requests);
}

TEST(MultiVideo, PerVideoBandwidthSumsToAggregate) {
  const MultiVideoResult r =
      run_multi_video_simulation(quick(VideoPolicy::kHybrid, 300.0));
  const double sum = std::accumulate(r.per_video_avg.begin(),
                                     r.per_video_avg.end(), 0.0);
  EXPECT_NEAR(sum, r.avg_streams, 1e-6);
}

TEST(MultiVideo, DhbPerVideoBelowNpbCeiling) {
  MultiVideoConfig c = quick(VideoPolicy::kDhb, 2000.0);
  const MultiVideoResult r = run_multi_video_simulation(c);
  const double ceiling = static_cast<double>(NpbMapping::streams_for(99));
  for (double v : r.per_video_avg) EXPECT_LT(v, ceiling);
}

TEST(MultiVideo, HybridStaticRanksPinned) {
  MultiVideoConfig c = quick(VideoPolicy::kHybrid, 100.0);
  c.hybrid_static_top = 2;
  const MultiVideoResult r = run_multi_video_simulation(c);
  const double per_video = static_cast<double>(NpbMapping::streams_for(99));
  EXPECT_DOUBLE_EQ(r.per_video_avg[0], per_video);
  EXPECT_DOUBLE_EQ(r.per_video_avg[1], per_video);
  EXPECT_LT(r.per_video_avg[2], per_video);
}

TEST(MultiVideo, HeterogeneousCatalogSupported) {
  MultiVideoConfig c = quick(VideoPolicy::kDhb, 300.0);
  c.catalog_size = 4;
  c.per_video_segments = {99, 49, 149, 25};    // 2 h, 1 h, 3 h, 30 min
  c.per_video_rate_kbs = {600.0, 800.0, 500.0, 700.0};
  const MultiVideoResult r = run_multi_video_simulation(c);
  EXPECT_GT(r.avg_streams, 0.0);
  EXPECT_GT(r.avg_kbs, 0.0);
  EXPECT_GE(r.max_kbs, r.avg_kbs);
  // KB/s accounting is rate-weighted: it exceeds avg_streams * min rate
  // and stays below avg_streams * max rate.
  EXPECT_GT(r.avg_kbs, r.avg_streams * 500.0 * 0.99);
  EXPECT_LT(r.avg_kbs, r.avg_streams * 800.0 * 1.01);
}

TEST(MultiVideo, HomogeneousKbsDefaultsToUnitRate) {
  const MultiVideoResult r =
      run_multi_video_simulation(quick(VideoPolicy::kDhb, 200.0));
  EXPECT_NEAR(r.avg_kbs, r.avg_streams, 1e-9);
}

TEST(MultiVideo, ShorterVideosCostLess) {
  // Same demand split over a catalog of short videos needs less bandwidth
  // than over long ones (each isolated request costs its video length).
  MultiVideoConfig shorter = quick(VideoPolicy::kDhb, 200.0);
  shorter.catalog_size = 5;
  shorter.per_video_segments = {25, 25, 25, 25, 25};
  MultiVideoConfig longer = quick(VideoPolicy::kDhb, 200.0);
  longer.catalog_size = 5;
  longer.per_video_segments = {149, 149, 149, 149, 149};
  const MultiVideoResult rs = run_multi_video_simulation(shorter);
  const MultiVideoResult rl = run_multi_video_simulation(longer);
  EXPECT_LT(rs.avg_streams, rl.avg_streams);
}

TEST(MultiVideoDeath, MismatchedOverrideSizes) {
  MultiVideoConfig c = quick(VideoPolicy::kDhb, 100.0);
  c.per_video_segments = {99, 99};  // catalog_size is 10
  EXPECT_DEATH(run_multi_video_simulation(c), "");
}

TEST(MultiVideo, ZeroMeasuredSlotsYieldsFiniteZeros) {
  // A config whose measured window rounds to zero slots used to divide the
  // per-video sums by zero (NaN in per_video_avg while avg_streams was 0).
  MultiVideoConfig c = quick(VideoPolicy::kDhb, 100.0);
  c.warmup_hours = 1.0;
  c.measured_hours = 0.0;
  const MultiVideoResult r = run_multi_video_simulation(c);
  EXPECT_EQ(r.measured_slots, 0u);
  EXPECT_EQ(r.requests, 0u);
  EXPECT_DOUBLE_EQ(r.avg_streams, 0.0);
  EXPECT_DOUBLE_EQ(r.max_streams, 0.0);
  for (double v : r.per_video_avg) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

TEST(MultiVideoDeath, InvalidConfigsFailFast) {
  {
    MultiVideoConfig c = quick(VideoPolicy::kDhb, 100.0);
    c.num_segments = 0;
    EXPECT_DEATH(run_multi_video_simulation(c), "at least one segment");
  }
  {
    MultiVideoConfig c = quick(VideoPolicy::kDhb, 100.0);
    c.zipf_exponent = -0.1;
    EXPECT_DEATH(run_multi_video_simulation(c), "Zipf exponent");
  }
  {
    // Zero is a legal degenerate rate (a dead catalog simulates to an
    // all-idle result — see MultiVideoAdaptive.ZeroRateCatalogIsLegalAndFinite
    // in multi_video_adaptive_test.cc); negative is not.
    MultiVideoConfig c = quick(VideoPolicy::kDhb, -1.0);
    EXPECT_DEATH(run_multi_video_simulation(c), "request rate");
  }
  {
    // The diurnal peak must dominate the off-peak rate it modulates.
    MultiVideoConfig c = quick(VideoPolicy::kDhb, 100.0);
    c.diurnal_peak_requests_per_hour = 50.0;
    EXPECT_DEATH(run_multi_video_simulation(c), "diurnal peak");
  }
  {
    MultiVideoConfig c = quick(VideoPolicy::kHybrid, 100.0);
    c.hybrid_static_top = -1;
    EXPECT_DEATH(run_multi_video_simulation(c), "hybrid_static_top");
  }
  {
    MultiVideoConfig c = quick(VideoPolicy::kDhb, 100.0);
    c.num_threads = -2;
    EXPECT_DEATH(run_multi_video_simulation(c), "num_threads");
  }
  {
    MultiVideoConfig c = quick(VideoPolicy::kDhb, 100.0);
    c.per_video_segments = {99, 99, 99, 99, 99, 99, 99, 99, 99, 0};
    EXPECT_DEATH(run_multi_video_simulation(c), "segment counts");
  }
}

TEST(MultiVideo, HybridTopClampsToCatalogSize) {
  // A hybrid top beyond the catalog degenerates to the all-static policy
  // instead of misbehaving.
  MultiVideoConfig c = quick(VideoPolicy::kHybrid, 100.0);
  c.hybrid_static_top = 50;  // catalog_size is 10
  const MultiVideoResult clamped = run_multi_video_simulation(c);
  const MultiVideoResult all_static =
      run_multi_video_simulation(quick(VideoPolicy::kStatic, 100.0));
  EXPECT_DOUBLE_EQ(clamped.avg_streams, all_static.avg_streams);
  EXPECT_DOUBLE_EQ(clamped.max_streams, all_static.max_streams);
}

TEST(MultiVideo, DeterministicForSeed) {
  const MultiVideoResult a =
      run_multi_video_simulation(quick(VideoPolicy::kDhb, 100.0));
  const MultiVideoResult b =
      run_multi_video_simulation(quick(VideoPolicy::kDhb, 100.0));
  EXPECT_DOUBLE_EQ(a.avg_streams, b.avg_streams);
  EXPECT_EQ(a.requests, b.requests);
}

TEST(MultiVideo, AggregatePeakBelowSumOfPeaks) {
  // Statistical multiplexing: the aggregate maximum is below the sum of
  // what per-video worst cases would be (99 each) and typically below
  // catalog_size * DHB's single-video max.
  MultiVideoConfig c = quick(VideoPolicy::kDhb, 1000.0);
  const MultiVideoResult r = run_multi_video_simulation(c);
  EXPECT_LT(r.max_streams, 10.0 * 8.0);
}

// Peak resident set of this process in KiB (VmHWM), or -1 where
// /proc/self/status does not report it.
long peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kShadowMemory = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kShadowMemory = true;
#else
constexpr bool kShadowMemory = false;
#endif
#else
constexpr bool kShadowMemory = false;
#endif

// The engine folds each shard into the result as soon as the shards before
// it are in, so a call holds a few shards' per-slot series per worker, not
// one per shard: 100,000 videos are 1,563 shards of 1,981 measured slots,
// 37 MB of series if every shard kept its own until the end. What a call
// must hold is its result's per-video vectors (2.4 MB) and the catalog's
// per-video plan.
TEST(MultiVideoMemory, PeakRssGrowsWithWorkersNotCatalog) {
#ifdef VOD_AUDIT
  GTEST_SKIP() << "VOD_AUDIT builds keep per-slot audit state";
#endif
  if (kShadowMemory) GTEST_SKIP() << "sanitizer shadow memory inflates RSS";
  const long before = peak_rss_kib();
  if (before < 0) GTEST_SKIP() << "no VmHWM in /proc/self/status";
  MultiVideoConfig c;
  c.catalog_size = 100000;
  c.total_requests_per_hour = 2000.0;
  c.warmup_hours = 4.0;
  c.measured_hours = 40.0;
  constexpr long kBoundKib = 16 * 1024;
  for (int threads : {1, 4}) {
    c.num_threads = threads;
    const MultiVideoResult r = run_multi_video_simulation(c);
    EXPECT_GT(r.requests, 0u);
    EXPECT_LE(peak_rss_kib() - before, kBoundKib) << threads << " threads";
  }
}

}  // namespace
}  // namespace vod
