// A multi-video VOD server.
//
// §4 of the paper ends with the observation that a video's channel
// bandwidth b should be chosen at least as large as its minimum rate so
// that "the empty slots could be shared by other videos". This module
// builds that server: a catalog of videos, all slotted on a common slot
// duration, each distributed by its own policy —
//
//   kDhb      — a DhbScheduler per video (the paper's protocol),
//   kStatic   — an always-on static broadcast using the fewest streams the
//               NPB packer needs for the video's segment count,
//   kHybrid   — static for the hottest `hybrid_static_top` ranks, DHB for
//               the long tail (what an operator who distrusts dynamic
//               protocols for the head of the catalog would deploy),
//   kAdaptive — an AdaptiveVideo per video: an EWMA rate estimate drives a
//               hysteresis ladder over reactive/DHB/static serving modes,
//               migrating in-flight clients across transitions without a
//               playback gap (server/adaptive_video.h). The policy a real
//               service wants when demand follows a diurnal curve.
//
// Requests arrive as one Poisson stream thinned over the catalog by a
// Zipf popularity distribution. The server reports aggregate and
// per-video bandwidth; with a shared channel pool the aggregate maximum
// is what the operator must provision.
//
// Execution model. Poisson thinning makes the per-video request streams
// *independent* Poisson processes of rate λ·p_v, so the catalog shards
// cleanly: the engine cuts the ranks into fixed-size contiguous shards,
// simulates each shard's videos on worker threads (each video drawing its
// arrivals from its own RNG substream, rng.fork(rank + 1)), and merges the
// per-shard per-slot stream totals in shard order, each shard as soon as
// the shards before it are in, so the per-slot series a call holds grow
// with the workers, not with the catalog. Because the shard
// decomposition and the merge order never depend on the thread count, the
// result is bit-identical for a given seed at any `num_threads`
// (DESIGN.md §8 has the full argument). A DHB video costs its requests and
// busy slots, not its horizon: its scheduler is built at its first
// arrival, and the engine jumps each span in which its schedule is empty
// (DhbScheduler::advance_to()), so a video nobody requests costs one
// arrival draw.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/dhb.h"
#include "server/adaptive_video.h"
#include "sim/zipf.h"

namespace vod::obs {
class EngineObserver;
}  // namespace vod::obs

namespace vod {

enum class VideoPolicy { kDhb, kStatic, kHybrid, kAdaptive };

struct MultiVideoConfig {
  int catalog_size = 20;
  // Default segment count; every video uses it unless per_video_segments
  // overrides. All videos share the slot duration (the server's channel
  // slotting), so segment count == video length in slots.
  int num_segments = 99;
  double slot_duration_s = 72.7;  // the paper's two-hour/99-segment slot
  double zipf_exponent = 0.729;   // classic video-rental skew
  // Aggregate request rate across the catalog. 0 is a legal degenerate
  // config — a dead server simulates to an all-idle (or all-static) result
  // with no arrivals, never a NaN.
  double total_requests_per_hour = 200.0;
  // When > 0, per-video arrivals follow the §1 diurnal demand curve
  // instead of a flat rate: video v sees daily_demand_curve with off-peak
  // total_requests_per_hour·p_v and peak diurnal_peak_requests_per_hour·p_v
  // (thinned non-homogeneous Poisson, same per-video RNG substreams, so
  // results stay bit-identical at any thread count). Must be >=
  // total_requests_per_hour when set; 0 keeps the homogeneous process.
  double diurnal_peak_requests_per_hour = 0.0;
  double warmup_hours = 8.0;
  double measured_hours = 150.0;
  VideoPolicy policy = VideoPolicy::kDhb;
  int hybrid_static_top = 3;  // kHybrid: ranks served statically

  // kAdaptive knobs: estimator half life / warm-up and the controller's
  // hysteresis bands + dwell, shared by every video in the catalog
  // (num_segments and fast_admission are overridden per video by the
  // engine). The default ladder is the measured n = 99 one
  // (default_adaptive_controller()). A pinned ladder
  // (controller.min_mode == controller.max_mode) runs a fixed protocol
  // through the identical code path — the bench's frontier baselines.
  AdaptiveVideoConfig adaptive;

  // When > 0, the engine also reports provisioned bandwidth: per video,
  // the measured slots are cut into windows of this many slots and the
  // per-window maximum stream count is averaged into
  // MultiVideoResult::per_video_provisioned — the per-rate channel
  // reservation the paper's Figure 8 compares (a window of ~1 h captures
  // "channels the operator must hold for this video this hour"). 0 skips
  // the accounting and leaves the vector empty.
  uint64_t provision_window_slots = 0;

  // Heterogeneous catalogs (§4: each video gets a channel bandwidth b at
  // least its own minimum). When non-empty, both vectors must have
  // catalog_size entries: per-video lengths in slots, and per-video stream
  // rates in KB/s (for the aggregate KB/s accounting). Empty means the
  // homogeneous defaults (rate 1.0 "unit b" per stream).
  std::vector<int> per_video_segments;
  std::vector<double> per_video_rate_kbs;

  // Worker threads for the sharded engine: 1 runs every shard inline on
  // the calling thread (the sequential path), n >= 2 starts n workers
  // that claim shards in ascending order while the caller folds their
  // results in shard order, 0 means auto (one per hardware thread). The
  // count is capped at the number of shards and at kMaxThreads
  // (util/parallel_for.h), so the engine runs
  // min(resolve_num_threads(num_threads), shards) workers. The result is
  // bit-identical across all values for a fixed seed.
  int num_threads = 1;
  // Videos per shard; a catalog of V videos has ceil(V / kShardSize)
  // shards. Fixed — never derived from the thread count — so the shard
  // decomposition, and with it the floating-point order of the merge, is
  // identical at every `num_threads`: that is what makes the result
  // bit-identical whether the shards run inline or on 8 workers.
  static constexpr int kShardSize = 64;

  // Run each per-video DhbScheduler on its admission fast path (placement
  // index + same-slot batch coalescing). The naive mode exists for
  // differential testing and baseline benchmarks only — results are
  // bit-identical either way, at any thread count.
  bool fast_admission = true;

  // Optional instrumentation (obs/trace.h). When set, the engine prepares
  // one metric shard + trace ring per catalog shard, installs the matching
  // ObsSink on whichever worker runs the shard, and folds every per-video
  // scheduler's dhb_* counters into its shard — so the observer's merged
  // view is bit-identical at any num_threads. Never read by the
  // simulation: results are unchanged whether an observer is attached.
  // Shard handoff re-arms the per-shard single-writer checks
  // (EngineObserver::sink() → detach_writer(); DESIGN.md §11), so Debug
  // builds verify that workers really do touch disjoint shards.
  obs::EngineObserver* observer = nullptr;

  uint64_t seed = 42;
};

struct MultiVideoResult {
  double avg_streams = 0.0;        // aggregate time-average, stream count
  double max_streams = 0.0;        // aggregate per-slot maximum
  double avg_kbs = 0.0;            // aggregate in KB/s (rate-weighted)
  double max_kbs = 0.0;
  uint64_t requests = 0;
  uint64_t measured_slots = 0;     // slots contributing to the averages
  std::vector<double> per_video_avg;      // streams, one entry per rank
  std::vector<uint64_t> per_video_requests;
  // Mean per-window peak streams per rank; empty unless
  // provision_window_slots > 0 (windows that end inside the measured span
  // only — a trailing partial window is dropped, never NaN).
  std::vector<double> per_video_provisioned;
  // kAdaptive only: lifetime mode switches per rank (0 elsewhere).
  std::vector<uint64_t> per_video_switches;
};

MultiVideoResult run_multi_video_simulation(const MultiVideoConfig& config);

}  // namespace vod
