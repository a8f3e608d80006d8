#include "server/multi_video.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "obs/qoe.h"
#include "obs/trace.h"
#include "protocols/npb.h"
#include "schedule/slot_math.h"
#include "sim/arrival_process.h"
#include "sim/stats.h"
#include "util/check.h"
#include "util/parallel_for.h"

namespace vod {
namespace {

// Videos per shard. Fixed — never derived from the thread count — so the
// shard decomposition, and with it the floating-point order of the merge,
// is identical at every `num_threads`: that is what makes the result
// bit-identical whether the shards run inline or on 8 workers.
constexpr int kShardSize = 64;

// Concurrency contract of the engine (DESIGN.md §8/§11): there are no
// locks here by design. CatalogPlan and the ZipfDistribution are frozen
// before the workers start and shared read-only; each worker writes one
// ShardResult and one observer shard that no other thread touches until
// the join (parallel_for hands out each shard index exactly once); the
// merge runs after the join, single-threaded, in shard order. The
// VOD_DCHECK_SERIAL single-writer checks inside DhbScheduler, MetricShard,
// and TraceBuffer fire in Debug builds if any code change ever makes two
// workers share one of these.

// Everything a shard kernel needs, shared read-only across workers.
struct CatalogPlan {
  const MultiVideoConfig* config;
  std::vector<int> segments;     // per rank, length in slots
  std::vector<double> rate_kbs;  // per rank, stream rate
  std::vector<bool> is_static;   // per rank, always-on NPB vs DHB
  std::vector<bool> is_adaptive; // per rank, AdaptiveVideo controller
  // NPB packings for adaptive videos, one per distinct segment count.
  // Built before the workers start, immutable after (AdaptiveVideo reads
  // only); std::map for deterministic construction order.
  std::map<int, NpbMapping> mappings;
  uint64_t warmup_slots = 0;
  uint64_t total_slots = 0;
  double rate_per_s = 0.0;       // aggregate off-peak rate, requests/second
  double peak_per_hour = 0.0;    // diurnal peak, requests/hour (0 = flat)
};

// What one shard reports back: per-measured-slot totals over its ranks
// (the aggregate max needs the full slot series, not scalars) plus the
// per-video tallies for the slice it owns.
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

// The first step in [from, last] whose batch holds an arrival at time
// `next_arrival`, decided by the slot loop's own test
// next_arrival < step * d; last + 1 when none does (an arrival at +inf,
// a rate-0 video, included). The test is monotone in the step, and the
// division only seeds the search, so rounding cannot move the arrival to
// a neighbouring slot.
uint64_t arrival_step(double next_arrival, uint64_t from, uint64_t last,
                      double d) {
  const auto holds = [&](uint64_t step) {
    return next_arrival < static_cast<double>(step) * d;
  };
  if (!holds(last)) return last + 1;
  const double guess = next_arrival / d;  // below about `last` here
  uint64_t step = guess > static_cast<double>(from)
                      ? std::min(last, static_cast<uint64_t>(guess))
                      : from;
  while (step > from && holds(step - 1)) --step;
  while (!holds(step)) ++step;
  return step;
}

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
  const double d = config.slot_duration_s;
  const uint64_t measured =
      plan.total_slots - plan.warmup_slots;  // >= 0 by construction
  out->slot_streams.assign(static_cast<size_t>(measured), 0);
  out->slot_kbs.assign(static_cast<size_t>(measured), 0.0);
  out->video_stream_sum.assign(static_cast<size_t>(last_rank - first_rank),
                               0.0);
  out->video_requests.assign(static_cast<size_t>(last_rank - first_rank), 0);
  out->video_provisioned.assign(static_cast<size_t>(last_rank - first_rank),
                                0.0);
  out->video_switches.assign(static_cast<size_t>(last_rank - first_rank), 0);

  const Rng base(config.seed);
  for (int v = first_rank; v < last_rank; ++v) {
    const size_t idx = static_cast<size_t>(v);
    const size_t local = static_cast<size_t>(v - first_rank);
    const double rate = plan.rate_kbs[idx];

    // A DHB video's scheduler is built at its first arrival inside the
    // horizon, so a video that never sees a request never builds one.
    std::unique_ptr<DhbScheduler> scheduler;
    DhbConfig dhb;
    std::unique_ptr<AdaptiveVideo> adaptive;
    int fixed_streams = 0;
    const bool is_dhb = !plan.is_adaptive[idx] && !plan.is_static[idx];
    if (plan.is_adaptive[idx]) {
      AdaptiveVideoConfig acfg = config.adaptive;
      acfg.num_segments = plan.segments[idx];
      acfg.fast_admission = config.fast_admission;
      acfg.video_id = static_cast<uint32_t>(v);
      adaptive = std::make_unique<AdaptiveVideo>(
          acfg, &plan.mappings.at(plan.segments[idx]));
    } else if (plan.is_static[idx]) {
      fixed_streams = NpbMapping::streams_for(plan.segments[idx]);
    } else {
      dhb.num_segments = plan.segments[idx];
      dhb.use_placement_index = config.fast_admission;
      dhb.coalesce_same_slot = config.fast_admission;
    }

    // QoE identity for this video's admissions. An adaptive video stamps
    // its own context every slot (its rung moves online); the other two
    // disciplines keep one rung for the video's whole lifetime — a plain
    // DHB scheduler is the dhb rung, an always-on NPB broadcast the static
    // rung. Null when no observer is attached or under VOD_OBSERVE=OFF,
    // and every recording site below folds away with it.
    obs::QoeShard* qoe = obs::current_qoe();
    if (qoe != nullptr && !plan.is_adaptive[idx]) {
      qoe->set_context(static_cast<uint32_t>(v), is_dhb ? 1 : 2);
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
    double next_arrival = arrivals->next();
    uint64_t idle_slots = 0;
    ProvisionedWindows provisioned;
    provisioned.window = config.provision_window_slots;

    for (uint64_t step = 1; step <= plan.total_slots; ++step) {
      int streams = 0;
      if (adaptive) {
        streams = adaptive->advance_slot();
      } else if (!is_dhb) {
        streams = fixed_streams;  // always on, demand or not
      } else if (scheduler && scheduler->schedule().total_scheduled() > 0) {
        streams = static_cast<int>(scheduler->advance_slot_view().size());
      } else {
        // Nothing scheduled, and DHB transmits nothing until a request
        // comes (§3): deep in a Zipf tail most steps are like this. Jump to
        // the step whose batch holds the next arrival; every step up to it
        // finds the schedule empty and sends 0 streams. Those before it are
        // folded here, and the step itself runs the body below with 0.
        const uint64_t to =
            arrival_step(next_arrival, step, plan.total_slots, d);
        idle_slots += std::min(to, plan.total_slots) - step + 1;
        const uint64_t first_measured = std::max(step, plan.warmup_slots + 1);
        if (to > first_measured) provisioned.add_idle(to - first_measured);
        if (to > plan.total_slots) {
          // No arrival left in the horizon: the clock still ends on the
          // engine's last slot.
          if (scheduler) {
            scheduler->advance_to(static_cast<Slot>(plan.total_slots));
          }
          break;
        }
        if (!scheduler) scheduler = std::make_unique<DhbScheduler>(dhb);
        scheduler->advance_to(static_cast<Slot>(to));
        step = to;
      }

      if (step > plan.warmup_slots) {
        const size_t slot = static_cast<size_t>(step - plan.warmup_slots - 1);
        out->slot_streams[slot] += streams;
        out->slot_kbs[slot] += streams * rate;
        out->video_stream_sum[local] += streams;
        provisioned.add(streams);
      }

      // Drain this slot's Poisson arrivals first, then admit them as one
      // batch: every same-slot request gets the identical plan (the
      // scheduler's coalescing memo), so the k-1 followers cost O(1) each.
      // The engine never reads the plan, so the discarding entry point
      // skips the per-batch plan copy entirely (counters identical).
      // The arrival draws and the admissions use independent rng streams,
      // so reordering draw-vs-admit changes nothing.
      const double slot_end = static_cast<double>(step) * d;
      uint64_t batch = 0;
      while (next_arrival < slot_end) {
        ++batch;
        next_arrival = arrivals->next();
      }
      // An adaptive video consumes every slot's batch — zero included; the
      // EWMA needs the silence as much as the bursts.
      if (adaptive) adaptive->on_slot_arrivals(batch);
      if (batch > 0) {
        if (scheduler) {
          scheduler->on_request_batch_discard(batch);
        } else if (qoe != nullptr && !adaptive) {
          // Always-on NPB: stream 1 carries segment 1 every slot
          // (period_of(1) == 1), so playback starts exactly one slot after
          // any arrival and the pinwheel guarantee rules out late segments.
          qoe->record_admission(batch, static_cast<int64_t>(step), 1.0, 0,
                                static_cast<uint64_t>(plan.segments[idx]));
        }
        if (step > plan.warmup_slots) out->video_requests[local] += batch;
        if (h_batch != nullptr) {
          h_batch->observe(static_cast<double>(batch));
        }
      }
    }

    out->video_provisioned[local] = provisioned.mean();
    if (adaptive) out->video_switches[local] = adaptive->switches();

    if (metrics != nullptr) {
      metrics->counter("engine_videos_total")->inc();
      metrics->counter("engine_idle_slots_total")->inc(idle_slots);
      metrics->counter("engine_requests_total")
          ->inc(out->video_requests[local]);
      // Fold the per-video scheduler's dhb_* counters into this shard so
      // the catalog-wide totals survive the scheduler's destruction. A
      // video that never saw a request built none and exports nothing.
      if (scheduler) scheduler->export_metrics(metrics);
      if (adaptive) adaptive->export_metrics(metrics);
    }
    VOD_TRACE_INSTANT("video/done", "engine",
                      static_cast<int64_t>(plan.total_slots), {"rank", v},
                      {"requests",
                       static_cast<int64_t>(out->video_requests[local])},
                      {"idle_slots", static_cast<int64_t>(idle_slots)});
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
  const double d = config.slot_duration_s;

  CatalogPlan plan;
  plan.config = &config;
  plan.warmup_slots = horizon_slots(config.warmup_hours, d);
  plan.total_slots =
      plan.warmup_slots + horizon_slots(config.measured_hours, d);
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

  // Adaptive videos need the NPB packing for their segment count; build
  // each distinct one once, up front, and share it read-only across every
  // shard kernel (streams_for() guarantees the packer fits).
  for (int v = 0; v < V; ++v) {
    if (!plan.is_adaptive[static_cast<size_t>(v)]) continue;
    const int n = plan.segments[static_cast<size_t>(v)];
    if (plan.mappings.count(n) != 0) continue;
    std::optional<NpbMapping> mapping =
        NpbMapping::build(NpbMapping::streams_for(n), n);
    VOD_CHECK_MSG(mapping.has_value(), "NPB packing failed");
    plan.mappings.emplace(n, std::move(*mapping));
  }

  const ZipfDistribution zipf(V, config.zipf_exponent);

  const int num_shards = (V + kShardSize - 1) / kShardSize;
  std::vector<ShardResult> shards(static_cast<size_t>(num_shards));
  if (config.observer != nullptr) {
    // One metric shard + trace ring per catalog shard, created up front by
    // this thread; workers then write disjoint shards only.
    config.observer->prepare(static_cast<size_t>(num_shards));
  }
  auto run_shard = [&](int s) {
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
    simulate_shard(plan, zipf, first, last,
                   &shards[static_cast<size_t>(s)]);
  };

  parallel_for(std::min(resolve_num_threads(config.num_threads), num_shards),
               num_shards, run_shard);

  // Deterministic merge: shard slot-series are aligned (every shard spans
  // the same measured slots), so summing them in shard order rebuilds the
  // aggregate per-slot totals exactly as a sequential pass would.
  const uint64_t measured = plan.total_slots - plan.warmup_slots;
  MultiVideoResult result;
  result.measured_slots = measured;
  result.per_video_avg.assign(static_cast<size_t>(V), 0.0);
  result.per_video_requests.assign(static_cast<size_t>(V), 0);
  if (config.provision_window_slots > 0) {
    result.per_video_provisioned.assign(static_cast<size_t>(V), 0.0);
  }
  result.per_video_switches.assign(static_cast<size_t>(V), 0);

  std::vector<int> total_streams(static_cast<size_t>(measured), 0);
  std::vector<double> total_kbs(static_cast<size_t>(measured), 0.0);
  for (int s = 0; s < num_shards; ++s) {
    const ShardResult& shard = shards[static_cast<size_t>(s)];
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
  }

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
