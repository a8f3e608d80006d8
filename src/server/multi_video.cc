#include "server/multi_video.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "obs/trace.h"
#include "protocols/npb.h"
#include "schedule/slot_loop.h"
#include "sim/arrival_process.h"
#include "sim/stats.h"
#include "util/check.h"
#include "util/parallel_for.h"

namespace vod {
namespace {

constexpr int kShardSize = MultiVideoConfig::kShardSize;

// Concurrency contract of the engine (DESIGN.md §8/§11): there are no
// locks here by design. CatalogPlan and the ZipfDistribution are frozen
// before the workers start and shared read-only. parallel_for hands out
// each shard index exactly once; the worker that claims it fills one
// ShardResult of the fork-join's ring and one observer shard, and no other
// thread touches them until the calling thread has folded that ShardResult
// into the aggregate. The calling thread folds the shards in shard order,
// and a ring buffer is refilled only after its fold has returned. The
// VOD_DCHECK_SERIAL single-writer checks inside DhbScheduler, MetricShard,
// and TraceBuffer fire in Debug builds if any code change ever makes two
// workers share one of these.

// Everything a shard kernel needs, shared read-only across workers.
struct CatalogPlan {
  explicit CatalogPlan(const MultiVideoConfig& c)
      : config(&c),
        horizon(c.warmup_hours, c.measured_hours, c.slot_duration_s) {}

  const MultiVideoConfig* config;
  SlotHorizon horizon;
  std::vector<int> segments;     // per rank, length in slots
  std::vector<double> rate_kbs;  // per rank, stream rate
  std::vector<bool> is_static;   // per rank, always-on NPB vs DHB
  std::vector<bool> is_adaptive; // per rank, AdaptiveVideo controller
  // NPB packings for adaptive videos and NPB stream counts for static
  // ones, one per distinct segment count. Built before the workers start,
  // immutable after (AdaptiveVideo reads only); std::map for deterministic
  // construction order.
  std::map<int, NpbMapping> mappings;
  std::map<int, int> static_streams;
  double rate_per_s = 0.0;       // aggregate off-peak rate, requests/second
  double peak_per_hour = 0.0;    // diurnal peak, requests/hour (0 = flat)
};

// What one shard reports back: per-measured-slot totals over its ranks
// (the aggregate max needs the full slot series, not scalars) plus the
// per-video tallies for the slice it owns. It lives in a ring buffer of
// the fork-join, which a later shard refills once this one is folded in.
struct ShardResult {
  std::vector<int> slot_streams;
  std::vector<double> slot_kbs;
  std::vector<double> video_stream_sum;  // per video of the slice
  std::vector<uint64_t> video_requests;
  std::vector<double> video_provisioned;  // mean window-max streams
  std::vector<uint64_t> video_switches;   // adaptive mode switches
};

// A video's provisioned figure: its measured slots cut into windows of
// `window` slots (0 = off), and the mean over complete windows of each
// window's peak stream count.
struct ProvisionedWindows {
  uint64_t window = 0;
  int peak = 0;       // peak inside the current window
  uint64_t fill = 0;  // measured slots accumulated into it
  double sum = 0.0;
  uint64_t complete = 0;

  void add(int streams) {
    if (window == 0) return;
    peak = std::max(peak, streams);
    if (++fill == window) {
      sum += peak;
      ++complete;
      peak = 0;
      fill = 0;
    }
  }

  // `slots` calls of add(0) in closed form: the current window completes
  // if they reach its end, and every further complete window peaks at 0.
  void add_idle(uint64_t slots) {
    if (window == 0) return;
    if (fill + slots < window) {
      fill += slots;
      return;
    }
    slots -= window - fill;
    sum += peak;
    complete += 1 + slots / window;
    peak = 0;
    fill = slots % window;
  }

  // A trailing partial window is dropped: a shorter window has a lower
  // expected max, so averaging it in would bias the provisioned figure
  // down. Zero complete windows reports 0.0, never a 0/0 NaN.
  double mean() const {
    return complete > 0 ? sum / static_cast<double>(complete) : 0.0;
  }
};

// One catalog video on the slot loop (schedule/slot_loop.h), adding its
// measured slots into the shard's series. A DHB video is quiet while it
// has no scheduler or its schedule is empty: DHB transmits nothing until a
// request comes (§3), and deep in a Zipf tail most slots are like this.
// Adaptive and static videos are never quiet. A constructor rather than
// aggregate initialization: GCC block-clears an aggregate this size
// (rep stos) before filling it, a start-up cost every video of a
// 10,000-video catalog pays once.
struct CatalogVideo : SlotVideo {
  CatalogVideo(const SlotHorizon& h, ShardResult& o, size_t l, double r,
               obs::HistogramMetric* hb, uint64_t window)
      : horizon(h), out(o), local(l), rate(r), h_batch(hb),
        provisioned{window} {}

  bool quiet() const {
    return is_dhb &&
           (!scheduler || scheduler->schedule().total_scheduled() == 0);
  }

  // Every skipped slot sends 0 streams: it counts as idle, adds nothing to
  // the series, folds into the provisioned windows in closed form, and
  // moves the scheduler's clock in O(1), so each scheduler runs on the
  // engine's clock and its plans carry engine slots with no translation.
  void skip(uint64_t from, uint64_t to) {
    idle_slots += to - from;
    const uint64_t first_measured = std::max(from, horizon.warmup + 1);
    if (to > first_measured) provisioned.add_idle(to - first_measured);
    if (scheduler) scheduler->advance_to(static_cast<Slot>(to - 1));
  }

  void serve(uint64_t t) {
    int streams = fixed_streams;  // a static video: always on, demand or not
    if (adaptive) {
      streams = adaptive->advance_slot();
    } else if (quiet()) {
      // A quiet video is served only on its next arrival's slot, so a
      // video that never sees a request inside the horizon builds nothing.
      ++idle_slots;
      if (!scheduler) scheduler = std::make_unique<DhbScheduler>(dhb);
      scheduler->advance_to(static_cast<Slot>(t));
    } else if (scheduler) {
      streams = static_cast<int>(scheduler->advance_slot_view().size());
    }
    if (!horizon.measuring(t)) return;
    const size_t slot = static_cast<size_t>(t - horizon.warmup - 1);
    out.slot_streams[slot] += streams;
    out.slot_kbs[slot] += streams * rate;
    out.video_stream_sum[local] += streams;
    provisioned.add(streams);
  }

  void arrive(uint64_t /*slot*/, double /*time*/) { ++batch; }

  // The slot's arrivals are admitted as one batch: every same-slot request
  // gets the identical plan (the scheduler's coalescing memo), so the k-1
  // followers cost O(1) each. The engine never reads the plan, so the
  // discarding entry point skips the per-batch plan copy entirely
  // (counters identical). An adaptive video consumes every slot's batch —
  // zero included; the EWMA needs the silence as much as the bursts. An
  // always-on NPB broadcast admits nothing: stream 1 carries S_1 every
  // slot, so a request starts one slot after it arrives.
  void close(uint64_t t) {
    if (adaptive) adaptive->on_slot_arrivals(batch);
    if (batch == 0) return;
    if (scheduler) scheduler->on_request_batch_discard(batch);
    if (horizon.measuring(t)) out.video_requests[local] += batch;
    if (h_batch != nullptr) h_batch->observe(static_cast<double>(batch));
    batch = 0;
  }

  const SlotHorizon& horizon;
  ShardResult& out;
  size_t local;  // index into the shard's per-video tallies
  double rate;   // KB/s per stream
  obs::HistogramMetric* h_batch;
  ProvisionedWindows provisioned;
  bool is_dhb = false;
  DhbConfig dhb;
  std::unique_ptr<DhbScheduler> scheduler;  // built at the first arrival
  std::unique_ptr<AdaptiveVideo> adaptive;
  int fixed_streams = 0;
  uint64_t batch = 0;  // arrivals handed over in the current slot
  uint64_t idle_slots = 0;
};

// Simulates ranks [first_rank, last_rank) against the shared plan. Each
// video is an independent thinned Poisson stream (rate λ·p_v) drawn from
// its own substream rng.fork(rank + 1), so shards never contend on RNG
// state and the outcome does not depend on which worker runs the shard.
void simulate_shard(const CatalogPlan& plan, const ZipfDistribution& zipf,
                    int first_rank, int last_rank, ShardResult* out) {
  // Wall-domain span over the whole kernel: in a Perfetto timeline the
  // per-shard spans show the Zipf load imbalance the shard schedule hides.
  VOD_TRACE_WALL_SPAN("shard_kernel", "engine");
  // Explicit (non-macro) metric writes below go through the ambient sink's
  // shard, so they also work in VOD_OBSERVE=OFF builds. Handles are
  // resolved once per kernel; null when no observer is attached.
  obs::ObsSink* obs_sink = obs::current_sink();
  obs::MetricShard* metrics =
      obs_sink != nullptr ? obs_sink->metrics : nullptr;
  obs::HistogramMetric* h_batch =
      metrics != nullptr
          ? metrics->histogram("engine_batch_requests", 0.0, 64.0, 64)
          : nullptr;

  const MultiVideoConfig& config = *plan.config;
  const size_t measured = static_cast<size_t>(plan.horizon.measured());
  const size_t videos = static_cast<size_t>(last_rank - first_rank);
  out->slot_streams.assign(measured, 0);
  out->slot_kbs.assign(measured, 0.0);
  out->video_stream_sum.assign(videos, 0.0);
  out->video_requests.assign(videos, 0);
  out->video_provisioned.assign(videos, 0.0);
  out->video_switches.assign(videos, 0);

  const Rng base(config.seed);
  for (int v = first_rank; v < last_rank; ++v) {
    const size_t idx = static_cast<size_t>(v);
    const size_t local = static_cast<size_t>(v - first_rank);
    CatalogVideo video(plan.horizon, *out, local, plan.rate_kbs[idx], h_batch,
                       config.provision_window_slots);
    if (plan.is_adaptive[idx]) {
      AdaptiveVideoConfig acfg = config.adaptive;
      acfg.num_segments = plan.segments[idx];
      acfg.fast_admission = config.fast_admission;
      acfg.video_id = static_cast<uint32_t>(v);
      video.adaptive = std::make_unique<AdaptiveVideo>(
          acfg, &plan.mappings.at(plan.segments[idx]));
    } else if (plan.is_static[idx]) {
      video.fixed_streams = plan.static_streams.at(plan.segments[idx]);
    } else {
      video.is_dhb = true;
      video.dhb.num_segments = plan.segments[idx];
      video.dhb.use_placement_index = config.fast_admission;
      video.dhb.coalesce_same_slot = config.fast_admission;
    }

    // Flat Poisson by default; the §1 diurnal curve (thinned
    // non-homogeneous Poisson) when a peak rate is configured. Either way
    // one substream per video, so the shard decomposition stays
    // deterministic.
    const double base_rate_per_s = plan.rate_per_s * zipf.probability(v);
    std::unique_ptr<ArrivalProcess> arrivals;
    if (plan.peak_per_hour > 0.0) {
      const double off_peak_h = base_rate_per_s * 3600.0;
      const double peak_h = plan.peak_per_hour * zipf.probability(v);
      arrivals = std::make_unique<NonHomogeneousPoissonProcess>(
          daily_demand_curve(off_peak_h, peak_h), per_hour(peak_h),
          base.fork(static_cast<uint64_t>(v) + 1));
    } else {
      arrivals = std::make_unique<PoissonProcess>(
          base_rate_per_s, base.fork(static_cast<uint64_t>(v) + 1));
    }
    run_slots(plan.horizon, *arrivals, video);

    out->video_provisioned[local] = video.provisioned.mean();
    if (video.adaptive) out->video_switches[local] = video.adaptive->switches();

    if (metrics != nullptr) {
      metrics->counter("engine_videos_total")->inc();
      metrics->counter("engine_idle_slots_total")->inc(video.idle_slots);
      metrics->counter("engine_requests_total")
          ->inc(out->video_requests[local]);
      // Fold the per-video scheduler's dhb_* counters into this shard so
      // the catalog-wide totals survive the scheduler's destruction. A
      // video that never saw a request built none and exports nothing.
      if (video.scheduler) video.scheduler->export_metrics(metrics);
      if (video.adaptive) video.adaptive->export_metrics(metrics);
    }
    VOD_TRACE_INSTANT("video/done", "engine",
                      static_cast<int64_t>(plan.horizon.total), {"rank", v},
                      {"requests",
                       static_cast<int64_t>(out->video_requests[local])},
                      {"idle_slots", static_cast<int64_t>(video.idle_slots)});
  }
}
}  // namespace

MultiVideoResult run_multi_video_simulation(const MultiVideoConfig& config) {
  VOD_CHECK(config.catalog_size >= 1);
  VOD_CHECK_MSG(config.num_segments >= 1, "need at least one segment");
  VOD_CHECK(config.slot_duration_s > 0.0);
  VOD_CHECK_MSG(config.zipf_exponent >= 0.0,
                "Zipf exponent must be non-negative");
  VOD_CHECK_MSG(config.total_requests_per_hour >= 0.0,
                "aggregate request rate must be non-negative");
  VOD_CHECK_MSG(config.diurnal_peak_requests_per_hour >= 0.0,
                "diurnal peak rate must be non-negative");
  VOD_CHECK_MSG(config.diurnal_peak_requests_per_hour == 0.0 ||
                    config.diurnal_peak_requests_per_hour >=
                        config.total_requests_per_hour,
                "diurnal peak must be at least the off-peak rate");
  VOD_CHECK_MSG(config.num_threads >= 0, "num_threads: 0 = auto, n >= 1");

  const int V = config.catalog_size;

  CatalogPlan plan(config);
  plan.rate_per_s = per_hour(config.total_requests_per_hour);
  plan.peak_per_hour = config.diurnal_peak_requests_per_hour;

  // Per-video shapes: homogeneous defaults unless overridden.
  plan.segments.assign(static_cast<size_t>(V), config.num_segments);
  plan.rate_kbs.assign(static_cast<size_t>(V), 1.0);
  if (!config.per_video_segments.empty()) {
    VOD_CHECK(static_cast<int>(config.per_video_segments.size()) == V);
    plan.segments = config.per_video_segments;
    for (int n : plan.segments) {
      VOD_CHECK_MSG(n >= 1, "per-video segment counts must be >= 1");
    }
  }
  if (!config.per_video_rate_kbs.empty()) {
    VOD_CHECK(static_cast<int>(config.per_video_rate_kbs.size()) == V);
    plan.rate_kbs = config.per_video_rate_kbs;
  }

  // Which videos run a dynamic scheduler vs an always-on broadcast. A
  // hybrid top larger than the catalog degenerates to all-static.
  VOD_CHECK_MSG(config.hybrid_static_top >= 0,
                "hybrid_static_top must be >= 0");
  const int static_top = std::min(config.hybrid_static_top, V);
  plan.is_static.assign(static_cast<size_t>(V), false);
  plan.is_adaptive.assign(static_cast<size_t>(V), false);
  for (int v = 0; v < V; ++v) {
    switch (config.policy) {
      case VideoPolicy::kDhb:
        break;
      case VideoPolicy::kStatic:
        plan.is_static[static_cast<size_t>(v)] = true;
        break;
      case VideoPolicy::kHybrid:
        plan.is_static[static_cast<size_t>(v)] = v < static_top;
        break;
      case VideoPolicy::kAdaptive:
        plan.is_adaptive[static_cast<size_t>(v)] = true;
        break;
    }
  }

  // Adaptive videos need the NPB packing for their segment count, static
  // ones its stream count; resolve each distinct one once, up front, on
  // this thread, and share it read-only across every shard kernel
  // (streams_for() guarantees the packer fits).
  for (int v = 0; v < V; ++v) {
    const int n = plan.segments[static_cast<size_t>(v)];
    if (plan.is_static[static_cast<size_t>(v)] &&
        plan.static_streams.count(n) == 0) {
      plan.static_streams.emplace(n, NpbMapping::streams_for(n));
    }
    if (!plan.is_adaptive[static_cast<size_t>(v)]) continue;
    if (plan.mappings.count(n) != 0) continue;
    std::optional<NpbMapping> mapping =
        NpbMapping::build(NpbMapping::streams_for(n), n);
    VOD_CHECK_MSG(mapping.has_value(), "NPB packing failed");
    plan.mappings.emplace(n, std::move(*mapping));
  }

  const ZipfDistribution zipf(V, config.zipf_exponent);

  const int num_shards = (V + kShardSize - 1) / kShardSize;
  if (config.observer != nullptr) {
    // One metric shard + trace ring per catalog shard, created up front by
    // this thread; workers then write disjoint shards only.
    config.observer->prepare(static_cast<size_t>(num_shards));
  }
  auto run_shard = [&](int s, ShardResult& out) {
    // Install this shard's sink on whichever worker runs it; trace events
    // carry the shard id as their track so per-shard timelines separate.
    obs::ObsSink sink;
    std::optional<obs::ScopedObsSink> scoped;
    if (config.observer != nullptr) {
      sink = config.observer->sink(static_cast<size_t>(s));
      if (sink.trace != nullptr) {
        sink.trace->set_track(static_cast<uint32_t>(s));
      }
      scoped.emplace(&sink);
    }
    const int first = s * kShardSize;
    const int last = std::min(V, first + kShardSize);
    simulate_shard(plan, zipf, first, last, &out);
  };

  const uint64_t measured = plan.horizon.measured();
  MultiVideoResult result;
  result.measured_slots = measured;
  result.per_video_avg.assign(static_cast<size_t>(V), 0.0);
  result.per_video_requests.assign(static_cast<size_t>(V), 0);
  if (config.provision_window_slots > 0) {
    result.per_video_provisioned.assign(static_cast<size_t>(V), 0.0);
  }
  result.per_video_switches.assign(static_cast<size_t>(V), 0);

  // Deterministic merge: shard slot-series are aligned (every shard spans
  // the same measured slots), and the fork-join folds them in shard order
  // at any thread count, so the aggregate per-slot totals are summed in
  // the same order as a sequential pass would.
  std::vector<int> total_streams(static_cast<size_t>(measured), 0);
  std::vector<double> total_kbs(static_cast<size_t>(measured), 0.0);
  auto fold_shard = [&](int s, const ShardResult& shard) {
    for (size_t i = 0; i < total_streams.size(); ++i) {
      total_streams[i] += shard.slot_streams[i];
      total_kbs[i] += shard.slot_kbs[i];
    }
    const int first = s * kShardSize;
    for (size_t local = 0; local < shard.video_requests.size(); ++local) {
      const size_t idx = static_cast<size_t>(first) + local;
      result.per_video_requests[idx] = shard.video_requests[local];
      result.requests += shard.video_requests[local];
      result.per_video_switches[idx] = shard.video_switches[local];
      if (config.provision_window_slots > 0) {
        result.per_video_provisioned[idx] = shard.video_provisioned[local];
      }
      if (measured > 0) {
        result.per_video_avg[idx] =
            shard.video_stream_sum[local] / static_cast<double>(measured);
      }
    }
  };

  parallel_for<ShardResult>(
      std::min(resolve_num_threads(config.num_threads), num_shards),
      num_shards, run_shard, fold_shard);

  RunningStats aggregate;
  RunningStats aggregate_kbs;
  for (size_t i = 0; i < total_streams.size(); ++i) {
    aggregate.add(total_streams[i]);
    aggregate_kbs.add(total_kbs[i]);
  }
  result.avg_streams = aggregate.mean();
  result.max_streams = aggregate.max();
  result.avg_kbs = aggregate_kbs.mean();
  result.max_kbs = aggregate_kbs.max();
  return result;
}

}  // namespace vod
