// Engine differential: the sharded catalog engine against independent
// single-video runs.
//
// Poisson thinning makes each video's request stream an independent
// Poisson process of rate λ·p_v drawn from its own substream
// Rng(seed).fork(v + 1) (server/multi_video.h), so the engine's result must
// equal V separately simulated videos summed slot by slot — at any thread
// count and on either admission path. Every figure is compared exactly:
// the engine's per-slot totals are integer sums, so neither the shard
// decomposition nor the merge order may change a bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/dhb.h"
#include "core/dhb_simulator.h"
#include "schedule/slot_math.h"
#include "server/multi_video.h"
#include "sim/arrival_process.h"
#include "sim/random.h"
#include "sim/stats.h"
#include "sim/zipf.h"

namespace vod {
namespace {

// A one-video catalog is run_dhb_simulation on the video's substream. The
// engine admits with on_request_batch_discard() and the driver with one
// on_request() per arrival, so this also pins the entry points' equivalence.
TEST(MultiVideoDifferential, OneVideoCatalogMatchesSingleVideoDriver) {
  for (const uint64_t seed : {1u, 7u, 42u}) {
    for (const double rate : {0.0, 2.0, 60.0, 600.0}) {
      SlottedSimConfig sim;
      sim.video.num_segments = 99;
      sim.requests_per_hour = rate;
      sim.warmup_hours = 4.0;
      sim.measured_hours = 40.0;
      sim.seed = seed;
      sim.verify_playout = false;
      DhbConfig dhb;
      dhb.num_segments = sim.video.num_segments;
      PoissonProcess arrivals(per_hour(rate), Rng(seed).fork(1));
      const SlottedSimResult single = run_dhb_simulation(dhb, sim, arrivals);

      MultiVideoConfig c;
      c.catalog_size = 1;
      c.num_segments = sim.video.num_segments;
      c.slot_duration_s = sim.video.slot_duration_s();
      c.total_requests_per_hour = rate;
      c.warmup_hours = sim.warmup_hours;
      c.measured_hours = sim.measured_hours;
      c.seed = seed;
      const MultiVideoResult engine = run_multi_video_simulation(c);

      EXPECT_EQ(engine.requests, single.requests)
          << "seed " << seed << " rate " << rate;
      EXPECT_EQ(engine.avg_streams, single.avg_streams)
          << "seed " << seed << " rate " << rate;
      EXPECT_EQ(engine.max_streams, single.max_streams)
          << "seed " << seed << " rate " << rate;
    }
  }
}

// What the engine must reproduce, written out per video: a fresh scheduler
// per rank, one on_request() per arrival of the rank's own Poisson stream,
// and the streams of every rank summed per measured slot.
MultiVideoResult independent_videos(const MultiVideoConfig& c) {
  const uint64_t warmup = horizon_slots(c.warmup_hours, c.slot_duration_s);
  const uint64_t total =
      warmup + horizon_slots(c.measured_hours, c.slot_duration_s);
  const uint64_t measured = total - warmup;
  const ZipfDistribution zipf(c.catalog_size, c.zipf_exponent);
  const Rng base(c.seed);

  MultiVideoResult out;
  out.per_video_avg.assign(static_cast<size_t>(c.catalog_size), 0.0);
  out.per_video_requests.assign(static_cast<size_t>(c.catalog_size), 0);
  std::vector<int> slot_streams(static_cast<size_t>(measured), 0);
  for (int v = 0; v < c.catalog_size; ++v) {
    DhbConfig dhb;
    dhb.num_segments = c.num_segments;
    DhbScheduler scheduler(dhb);
    PoissonProcess arrivals(
        per_hour(c.total_requests_per_hour) * zipf.probability(v),
        base.fork(static_cast<uint64_t>(v) + 1));
    double next_arrival = arrivals.next();
    double stream_sum = 0.0;
    for (uint64_t step = 1; step <= total; ++step) {
      const int streams =
          static_cast<int>(scheduler.advance_slot_view().size());
      const bool measuring = step > warmup;
      if (measuring) {
        slot_streams[static_cast<size_t>(step - warmup - 1)] += streams;
        stream_sum += streams;
      }
      const double slot_end = static_cast<double>(step) * c.slot_duration_s;
      while (next_arrival < slot_end) {
        scheduler.on_request();
        if (measuring) ++out.per_video_requests[static_cast<size_t>(v)];
        next_arrival = arrivals.next();
      }
    }
    out.requests += out.per_video_requests[static_cast<size_t>(v)];
    out.per_video_avg[static_cast<size_t>(v)] =
        stream_sum / static_cast<double>(measured);
  }
  RunningStats aggregate;
  for (const int streams : slot_streams) aggregate.add(streams);
  out.avg_streams = aggregate.mean();
  out.max_streams = aggregate.max();
  return out;
}

// About 150 videos in three shards of the engine, at 1 and 3 threads and on
// both admission paths. Sparse tail videos admit mostly into an empty
// schedule, so this is also the net for the scheduler's replayed plans.
TEST(MultiVideoDifferential, CatalogEqualsIndependentVideos) {
  MultiVideoConfig c;
  c.catalog_size = 150;
  c.total_requests_per_hour = 2000.0;
  c.warmup_hours = 4.0;
  c.measured_hours = 40.0;
  c.seed = 11;
  const MultiVideoResult want = independent_videos(c);
  ASSERT_GT(want.requests, 0u);
  for (const int threads : {1, 3}) {
    for (const bool fast : {true, false}) {
      c.num_threads = threads;
      c.fast_admission = fast;
      const MultiVideoResult got = run_multi_video_simulation(c);
      EXPECT_EQ(got.requests, want.requests)
          << threads << " threads, fast " << fast;
      EXPECT_EQ(got.per_video_requests, want.per_video_requests)
          << threads << " threads, fast " << fast;
      EXPECT_EQ(got.per_video_avg, want.per_video_avg)
          << threads << " threads, fast " << fast;
      EXPECT_EQ(got.avg_streams, want.avg_streams)
          << threads << " threads, fast " << fast;
      EXPECT_EQ(got.max_streams, want.max_streams)
          << threads << " threads, fast " << fast;
    }
  }
}

}  // namespace
}  // namespace vod
