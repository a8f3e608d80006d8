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

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dhb.h"
#include "core/dhb_simulator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "protocols/npb.h"
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
// per rank stepped on every slot, one on_request() per arrival of the
// rank's own arrival stream, and the streams of every rank summed per
// measured slot. Handles kDhb and kHybrid catalogs (a static head rank
// sends its NPB stream count every slot), flat or diurnal demand, and the
// provisioned windows.
struct Oracle {
  MultiVideoResult result;
  uint64_t total_slots = 0;  // warm-up and measured
  uint64_t idle_slots = 0;   // DHB steps that found the schedule empty
  uint64_t dhb_videos_with_arrivals = 0;  // arrival inside the horizon
};

Oracle independent_videos(const MultiVideoConfig& c) {
  const uint64_t warmup = horizon_slots(c.warmup_hours, c.slot_duration_s);
  const uint64_t total =
      warmup + horizon_slots(c.measured_hours, c.slot_duration_s);
  const uint64_t measured = total - warmup;
  const uint64_t window = c.provision_window_slots;
  const size_t videos = static_cast<size_t>(c.catalog_size);
  const ZipfDistribution zipf(c.catalog_size, c.zipf_exponent);
  const Rng base(c.seed);

  Oracle oracle;
  oracle.total_slots = total;
  MultiVideoResult& out = oracle.result;
  out.measured_slots = measured;
  out.per_video_avg.assign(videos, 0.0);
  out.per_video_requests.assign(videos, 0);
  out.per_video_switches.assign(videos, 0);
  if (window > 0) out.per_video_provisioned.assign(videos, 0.0);
  std::vector<int> slot_streams(static_cast<size_t>(measured), 0);
  for (int v = 0; v < c.catalog_size; ++v) {
    const size_t idx = static_cast<size_t>(v);
    const bool is_static =
        c.policy == VideoPolicy::kHybrid && v < c.hybrid_static_top;
    const int static_streams =
        is_static ? NpbMapping::streams_for(c.num_segments) : 0;
    DhbConfig dhb;
    dhb.num_segments = c.num_segments;
    DhbScheduler scheduler(dhb);
    const double rate_per_s =
        per_hour(c.total_requests_per_hour) * zipf.probability(v);
    std::unique_ptr<ArrivalProcess> arrivals;
    if (c.diurnal_peak_requests_per_hour > 0.0) {
      const double peak_h =
          c.diurnal_peak_requests_per_hour * zipf.probability(v);
      arrivals = std::make_unique<NonHomogeneousPoissonProcess>(
          daily_demand_curve(rate_per_s * 3600.0, peak_h), per_hour(peak_h),
          base.fork(static_cast<uint64_t>(v) + 1));
    } else {
      arrivals = std::make_unique<PoissonProcess>(
          rate_per_s, base.fork(static_cast<uint64_t>(v) + 1));
    }
    double next_arrival = arrivals->next();
    if (!is_static &&
        next_arrival < static_cast<double>(total) * c.slot_duration_s) {
      ++oracle.dhb_videos_with_arrivals;
    }
    double stream_sum = 0.0;
    std::vector<int> series;  // this video's measured streams
    for (uint64_t step = 1; step <= total; ++step) {
      int streams = static_streams;
      if (!is_static) {
        if (scheduler.schedule().total_scheduled() == 0) ++oracle.idle_slots;
        streams = static_cast<int>(scheduler.advance_slot_view().size());
      }
      const bool measuring = step > warmup;
      if (measuring) {
        slot_streams[static_cast<size_t>(step - warmup - 1)] += streams;
        stream_sum += streams;
        series.push_back(streams);
      }
      const double slot_end = static_cast<double>(step) * c.slot_duration_s;
      while (next_arrival < slot_end) {
        if (!is_static) scheduler.on_request();
        if (measuring) ++out.per_video_requests[idx];
        next_arrival = arrivals->next();
      }
    }
    out.requests += out.per_video_requests[idx];
    out.per_video_avg[idx] = stream_sum / static_cast<double>(measured);
    if (window > 0) {
      // Complete windows only; a trailing partial one is dropped.
      const size_t complete = series.size() / window;
      double peaks = 0.0;
      for (size_t k = 0; k < complete; ++k) {
        const auto first = series.begin() + static_cast<ptrdiff_t>(k * window);
        peaks += *std::max_element(first,
                                   first + static_cast<ptrdiff_t>(window));
      }
      if (complete > 0) {
        out.per_video_provisioned[idx] = peaks / static_cast<double>(complete);
      }
    }
  }
  RunningStats aggregate;
  RunningStats aggregate_kbs;  // every stream is 1.0 KB/s here
  for (const int streams : slot_streams) {
    aggregate.add(streams);
    aggregate_kbs.add(static_cast<double>(streams));
  }
  out.avg_streams = aggregate.mean();
  out.max_streams = aggregate.max();
  out.avg_kbs = aggregate_kbs.mean();
  out.max_kbs = aggregate_kbs.max();
  return oracle;
}

void expect_same(const MultiVideoResult& got, const MultiVideoResult& want,
                 const std::string& label) {
  EXPECT_EQ(got.avg_streams, want.avg_streams) << label;
  EXPECT_EQ(got.max_streams, want.max_streams) << label;
  EXPECT_EQ(got.avg_kbs, want.avg_kbs) << label;
  EXPECT_EQ(got.max_kbs, want.max_kbs) << label;
  EXPECT_EQ(got.requests, want.requests) << label;
  EXPECT_EQ(got.measured_slots, want.measured_slots) << label;
  EXPECT_EQ(got.per_video_avg, want.per_video_avg) << label;
  EXPECT_EQ(got.per_video_requests, want.per_video_requests) << label;
  EXPECT_EQ(got.per_video_provisioned, want.per_video_provisioned) << label;
  EXPECT_EQ(got.per_video_switches, want.per_video_switches) << label;
}

// Holds the engine to the oracle at 1 and 3 threads on both admission
// paths, then checks one observed call's meters: the engine's idle count
// equals the oracle's count of steps that found a schedule empty, and only
// the DHB videos with an arrival inside the horizon built a scheduler,
// each ending on the engine's last slot.
void expect_engine_matches(MultiVideoConfig c, const std::string& name) {
  const Oracle want = independent_videos(c);
  for (const int threads : {1, 3}) {
    for (const bool fast : {true, false}) {
      c.num_threads = threads;
      c.fast_admission = fast;
      expect_same(run_multi_video_simulation(c), want.result,
                  name + ", " + std::to_string(threads) + " threads, fast " +
                      std::to_string(fast));
    }
  }
  obs::EngineObserver observer;
  c.num_threads = 1;
  c.fast_admission = true;
  c.observer = &observer;
  expect_same(run_multi_video_simulation(c), want.result, name + ", observed");
  const obs::MetricShard metrics = observer.merged_metrics();
  EXPECT_EQ(metrics.counter_value("engine_idle_slots_total"), want.idle_slots)
      << name;
  EXPECT_EQ(metrics.counter_value("schedule_advances_total"),
            want.dhb_videos_with_arrivals * want.total_slots)
      << name;
}

MultiVideoConfig catalog(int videos, double requests_per_hour) {
  MultiVideoConfig c;
  c.catalog_size = videos;
  c.total_requests_per_hour = requests_per_hour;
  c.warmup_hours = 4.0;
  c.measured_hours = 40.0;
  c.seed = 11;
  return c;
}

// About 150 videos in three shards of the engine. At 2,000 req/h every
// video is busy most of the time; at 20 req/h most videos see a handful of
// requests, a few see none, and most steps lie in empty spans the engine
// jumps, so this is also the net for the scheduler's replayed plans and
// for schedulers built at a video's first arrival.
TEST(MultiVideoDifferential, CatalogEqualsIndependentVideos) {
  for (const double rate : {2000.0, 20.0}) {
    const MultiVideoConfig c = catalog(150, rate);
    const Oracle want = independent_videos(c);
    ASSERT_GT(want.result.requests, 0u);
    if (rate < 100.0) {
      ASSERT_LT(want.dhb_videos_with_arrivals, 150u);
    }
    expect_engine_matches(c, "rate " + std::to_string(rate));
  }
}

// Provisioned windows of 1, 7 and 50 slots on a cold catalog. The 4 h
// warm-up is 199 slots, a multiple of none of the wider windows, so a jump
// across the end of the warm-up must start counting at the first measured
// slot.
TEST(MultiVideoDifferential, ProvisionedWindowsEqualIndependentVideos) {
  for (const uint64_t window : {1u, 7u, 50u}) {
    MultiVideoConfig c = catalog(100, 30.0);
    c.provision_window_slots = window;
    if (window > 1) {
      ASSERT_NE(horizon_slots(c.warmup_hours, c.slot_duration_s) % window,
                0u);
    }
    expect_engine_matches(c, "window " + std::to_string(window));
  }
}

TEST(MultiVideoDifferential, DiurnalCatalogEqualsIndependentVideos) {
  MultiVideoConfig c = catalog(100, 10.0);
  c.diurnal_peak_requests_per_hour = 300.0;
  c.provision_window_slots = 50;
  expect_engine_matches(c, "diurnal");
}

TEST(MultiVideoDifferential, HybridCatalogEqualsIndependentVideos) {
  MultiVideoConfig c = catalog(100, 30.0);
  c.policy = VideoPolicy::kHybrid;
  c.hybrid_static_top = 5;
  c.provision_window_slots = 7;
  expect_engine_matches(c, "hybrid");
}

// No arrivals: every step of every video is idle and no scheduler is
// built, so no scheduler clock is exported at all.
TEST(MultiVideoDifferential, RateZeroBuildsNoScheduler) {
  MultiVideoConfig c = catalog(70, 0.0);
  c.provision_window_slots = 50;
  ASSERT_EQ(independent_videos(c).dhb_videos_with_arrivals, 0u);
  expect_engine_matches(c, "rate 0");
}

}  // namespace
}  // namespace vod
