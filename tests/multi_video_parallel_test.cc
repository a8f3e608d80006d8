// Determinism of the sharded multi-video engine: for a fixed seed, the
// MultiVideoResult must be bit-identical at every thread count — the shard
// decomposition and merge order are fixed, so the worker count only changes
// wall-clock, never a single bit of output.
#include <gtest/gtest.h>

#include <vector>

#include "server/multi_video.h"

namespace vod {
namespace {

void expect_bit_identical(const MultiVideoResult& a,
                          const MultiVideoResult& b) {
  // Exact equality on purpose (EXPECT_DOUBLE_EQ would allow 4 ULPs).
  EXPECT_EQ(a.avg_streams, b.avg_streams);
  EXPECT_EQ(a.max_streams, b.max_streams);
  EXPECT_EQ(a.avg_kbs, b.avg_kbs);
  EXPECT_EQ(a.max_kbs, b.max_kbs);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.measured_slots, b.measured_slots);
  EXPECT_EQ(a.per_video_avg, b.per_video_avg);
  EXPECT_EQ(a.per_video_requests, b.per_video_requests);
  EXPECT_EQ(a.per_video_provisioned, b.per_video_provisioned);
  EXPECT_EQ(a.per_video_switches, b.per_video_switches);
}

MultiVideoConfig base_config(int catalog, VideoPolicy policy) {
  MultiVideoConfig c;
  c.catalog_size = catalog;
  c.num_segments = 49;
  c.total_requests_per_hour = 400.0;
  c.warmup_hours = 1.0;
  c.measured_hours = 10.0;
  c.policy = policy;
  return c;
}

TEST(MultiVideoParallel, BitIdenticalAcrossThreadCounts) {
  // 130 videos = 3 shards, so 2 and 8 threads genuinely interleave work.
  MultiVideoConfig c = base_config(130, VideoPolicy::kDhb);
  c.num_threads = 1;
  const MultiVideoResult sequential = run_multi_video_simulation(c);
  for (int threads : {2, 8}) {
    c.num_threads = threads;
    const MultiVideoResult parallel = run_multi_video_simulation(c);
    SCOPED_TRACE(threads);
    expect_bit_identical(sequential, parallel);
  }
}

TEST(MultiVideoParallel, AutoThreadsMatchesSequential) {
  MultiVideoConfig c = base_config(100, VideoPolicy::kHybrid);
  c.hybrid_static_top = 5;
  c.num_threads = 1;
  const MultiVideoResult sequential = run_multi_video_simulation(c);
  c.num_threads = 0;  // auto
  const MultiVideoResult automatic = run_multi_video_simulation(c);
  expect_bit_identical(sequential, automatic);
}

TEST(MultiVideoParallel, HeterogeneousCatalogSequentialVsSharded) {
  // Regression pin: per-video shapes (lengths and rates) ride along with
  // the shard, so a heterogeneous catalog must agree across thread counts
  // exactly like a homogeneous one.
  MultiVideoConfig c = base_config(6, VideoPolicy::kDhb);
  c.per_video_segments = {99, 49, 149, 25, 70, 40};
  c.per_video_rate_kbs = {600.0, 800.0, 500.0, 700.0, 650.0, 550.0};
  c.num_threads = 1;
  const MultiVideoResult sequential = run_multi_video_simulation(c);
  c.num_threads = 4;
  const MultiVideoResult sharded = run_multi_video_simulation(c);
  expect_bit_identical(sequential, sharded);
  EXPECT_GT(sequential.avg_kbs, 0.0);
}

TEST(MultiVideoParallel, ManyShardsFoldInShardOrder) {
  // 1,000 videos = 16 shards. The Zipf head sits in shard 0, so at two or
  // more threads shard 0 finishes after shards behind it. Rates that are
  // not dyadic fractions make the per-slot KB/s sums depend on the order
  // they are added in, so only a shard-order fold reproduces the
  // sequential result (unit rates add exactly in any order). Shard 0's
  // rates dwarf the rest, so how much of the tail's KB/s rounds away
  // depends on whether the head is added first: a fold in completion
  // order changes max_kbs or avg_kbs in 200 of 200 runs.
  MultiVideoConfig c = base_config(1000, VideoPolicy::kDhb);
  c.total_requests_per_hour = 4000.0;
  c.provision_window_slots = 50;
  c.per_video_rate_kbs.resize(1000);
  for (size_t v = 0; v < c.per_video_rate_kbs.size(); ++v) {
    const double scale = v < MultiVideoConfig::kShardSize ? 1e7 : 1.0;
    c.per_video_rate_kbs[v] = scale / static_cast<double>(3 + v % 7);
  }
  c.num_threads = 1;
  const MultiVideoResult sequential = run_multi_video_simulation(c);
  EXPECT_GT(sequential.avg_kbs, 0.0);
  for (int threads : {2, 3, 4, 8}) {
    c.num_threads = threads;
    const MultiVideoResult parallel = run_multi_video_simulation(c);
    SCOPED_TRACE(threads);
    expect_bit_identical(sequential, parallel);
  }
}

TEST(MultiVideoParallel, StaticVideosAgreeAcrossThreadCounts) {
  // A static video's NPB stream count comes from the plan, resolved once
  // per distinct segment count before the workers start; the workers only
  // read it. 4 threads run first, so in a fresh process the first NPB
  // lookup would be a worker's if any worker still made one. 200 videos
  // are 4 shards, and the hybrid's static top of 100 spans shards 0 and 1.
  for (const VideoPolicy policy :
       {VideoPolicy::kStatic, VideoPolicy::kHybrid}) {
    MultiVideoConfig c = base_config(200, policy);
    c.hybrid_static_top = 100;
    c.per_video_segments.resize(200);
    for (size_t v = 0; v < c.per_video_segments.size(); ++v) {
      c.per_video_segments[v] = 29 + 10 * static_cast<int>(v % 3);
    }
    c.num_threads = 4;
    const MultiVideoResult first = run_multi_video_simulation(c);
    EXPECT_GT(first.avg_streams, 0.0);
    for (int threads : {2, 1}) {
      c.num_threads = threads;
      const MultiVideoResult again = run_multi_video_simulation(c);
      SCOPED_TRACE(threads);
      expect_bit_identical(first, again);
    }
  }
}

TEST(MultiVideoParallel, SingleShardCatalogUnaffectedByThreads) {
  // Fewer videos than one shard: the pool has one task; still identical.
  MultiVideoConfig c = base_config(10, VideoPolicy::kDhb);
  c.num_threads = 1;
  const MultiVideoResult sequential = run_multi_video_simulation(c);
  c.num_threads = 8;
  const MultiVideoResult parallel = run_multi_video_simulation(c);
  expect_bit_identical(sequential, parallel);
}

TEST(MultiVideoParallel, RepeatedParallelRunsAgree) {
  // Same seed, same thread count, run twice: the pool must not leak any
  // scheduling nondeterminism into the result.
  MultiVideoConfig c = base_config(130, VideoPolicy::kDhb);
  c.num_threads = 4;
  const MultiVideoResult a = run_multi_video_simulation(c);
  const MultiVideoResult b = run_multi_video_simulation(c);
  expect_bit_identical(a, b);
}

TEST(MultiVideoParallel, SeedStillMatters) {
  MultiVideoConfig c = base_config(100, VideoPolicy::kDhb);
  c.num_threads = 4;
  const MultiVideoResult a = run_multi_video_simulation(c);
  c.seed = 43;
  const MultiVideoResult b = run_multi_video_simulation(c);
  EXPECT_NE(a.requests, b.requests);
}

}  // namespace
}  // namespace vod
