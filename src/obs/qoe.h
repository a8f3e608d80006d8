// Client-perceived QoE accounting: per-request startup wait and continuity,
// recorded per admission into per-shard exemplar histograms and scored
// against SLOs with multi-window burn-rate tracking (obs/slo.h).
//
// The paper argues in client terms — expected/maximum waiting time versus
// server bandwidth — so this layer turns the serving paths whose client
// experience can vary into client-side numbers:
//
//   startup wait  = slots between a request's arrival and the first slot
//                   in which it receives its first segment (0 = same slot);
//   continuity    = fraction of a request's segments delivered by their
//                   playout deadline.
//
// Those paths are batching (the wait to the next batch boundary),
// bounded-admission deferrals (run_dhb_simulation under a channel_cap) and
// client-capped DHB admissions (whose cap_violations are their late
// segments). An uncapped DHB, NPB or stream-tapping admission records
// nothing: its wait and continuity are fixed by construction (DESIGN.md
// §15).
//
// Samples land in the per-(video, rung) QoeGroup of the writer's QoeShard,
// keyed by the protocol-ladder rung that served the request (the
// ServingMode value in server terms; this layer sits below server/ and
// only sees the integer). Exemplar histograms keep, per bucket, the worst
// sample's (request id, slot) so a p99 regression in a report links back
// to a concrete request. Shards merge deterministically in ascending shard
// order, exactly like MetricShard — bit-identical at any thread count.
//
// Write-only contract (DESIGN.md §15): recording reads nothing back into
// the simulation, and every call site goes through current_qoe(), which is
// a constant nullptr under VOD_OBSERVE=OFF — the whole layer folds away,
// keeping engine checksums bit-identical with QoE on, off, or compiled out.
//
// Concurrency contract: one writer at a time, no locks; detach_writer()
// hands a shard to the next writer (DESIGN.md §11). Layering: obs sits
// below schedule/core/server, so this API speaks plain integers (slots as
// int64_t, videos as uint32_t, rungs as int32_t) — never vod::Slot or
// ClientPlan.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/slo.h"
#include "obs/trace.h"
#include "sim/stats.h"
#include "util/thread_checker.h"

namespace vod::obs {

// Worst sample retained for one histogram bucket. "Worst" = largest value;
// ties break to the smallest (slot, request_id) so merges are
// order-independent.
struct QoeExemplar {
  uint64_t request_id = 0;
  int64_t slot = 0;
  double value = 0.0;
};

// vod::Histogram plus a per-bucket worst exemplar. Merge is commutative
// and associative: bin counts add, exemplars compare by the rule above.
class ExemplarHistogram {
 public:
  ExemplarHistogram(double lo, double hi, size_t bins);

  void observe(double x, uint64_t request_id, int64_t slot) {
    observe_n(x, 1, request_id, slot);
  }
  void observe_n(double x, uint64_t n, uint64_t request_id, int64_t slot);

  void merge(const ExemplarHistogram& other);

  uint64_t count() const { return hist_.count(); }
  double sum() const { return sum_; }
  double quantile(double q) const { return hist_.quantile(q); }
  const Histogram& histogram() const { return hist_; }
  // Parallel to histogram().bins(); entry i is meaningful iff bin i > 0.
  const std::vector<QoeExemplar>& exemplars() const { return exemplars_; }

 private:
  // Mirrors Histogram::add_n's clamping bucket math exactly.
  size_t bucket_of(double x) const;

  Histogram hist_;
  std::vector<QoeExemplar> exemplars_;
  double sum_ = 0.0;
};

// (video, rung) sample-stream key; rung is the protocol-ladder position
// that served the request (server/adaptive_video.h ServingMode as an int:
// 0 reactive, 1 DHB, 2 static broadcast).
struct QoeKey {
  uint32_t video = 0;
  int32_t rung = 0;

  friend bool operator<(const QoeKey& a, const QoeKey& b) {
    if (a.video != b.video) return a.video < b.video;
    return a.rung < b.rung;
  }
  friend bool operator==(const QoeKey& a, const QoeKey& b) {
    return a.video == b.video && a.rung == b.rung;
  }
};

struct QoeOptions {
  // Startup-wait histogram domain, in slots. Bins of 1/16 slot separate
  // the waits every recorder writes: batching's fractions of a batch
  // interval as well as a bounded deferral's whole slots (up to its
  // 50-slot default give-up).
  double wait_hi_slots = 64.0;
  size_t wait_bins = 1024;
  // "p99 startup wait <= W slots": a request is wait-bad when its wait
  // exceeds the objective; with a 1% budget the lifetime verdict is
  // exactly the p99 claim.
  double wait_objective_slots = 8.0;
  SloConfig wait_slo{0.01, 64, 512, 1.0};
  // "continuity >= 99.9%": a segment is bad when it misses its deadline.
  SloConfig continuity_slo{0.001, 64, 512, 1.0};
  // Recent-sample ring retained per shard for violation dumps.
  size_t sample_ring_capacity = 64;
};

// Per-(video, rung) accumulators.
struct QoeGroup {
  explicit QoeGroup(const QoeOptions& options);

  ExemplarHistogram wait;
  uint64_t admissions = 0;  // record_admission() calls
  uint64_t requests = 0;
  uint64_t segments = 0;
  uint64_t late_segments = 0;
  SloTracker wait_slo;
  SloTracker continuity_slo;
  // Per-group admission sequence; request ids are (video << 32) | seq.
  uint64_t next_request_seq = 0;

  double continuity() const {
    if (segments == 0) return 1.0;
    return 1.0 - static_cast<double>(late_segments) /
                     static_cast<double>(segments);
  }
};

// One retained sample batch (the violation-dump context ring's unit).
struct QoeSample {
  uint64_t request_id = 0;
  int64_t slot = 0;
  uint32_t video = 0;
  int32_t rung = 0;
  double wait_slots = 0.0;
  uint64_t count = 0;
  uint64_t late_segments = 0;  // per request
  uint64_t segments = 0;       // per request
};

// One writer's QoE namespace: groups keyed (video, rung), a recent-sample
// ring, and the (video, rung) recording context records land in.
class QoeShard {
 public:
  explicit QoeShard(const QoeOptions& options = {});
  ~QoeShard();

  QoeShard(const QoeShard&) = delete;
  QoeShard& operator=(const QoeShard&) = delete;

  // Recording context: the (video, rung) group later records land in;
  // (0, 0) until set.
  void set_context(uint32_t video, int32_t rung);
  uint32_t video() const { return video_; }
  int32_t rung() const { return rung_; }

  // `count` identical requests admitted during `slot`, each waiting
  // `wait_slots` for its first segment, each missing
  // `late_segments_per_request` of its `segments_per_request` deadlines.
  void record_admission(uint64_t count, int64_t slot, double wait_slots,
                        uint64_t late_segments_per_request,
                        uint64_t segments_per_request);

  const std::map<QoeKey, QoeGroup>& groups() const { return groups_; }
  const QoeOptions& options() const { return options_; }
  uint64_t total_requests() const { return total_requests_; }
  // Retained samples, oldest first. Lock-free read of single-writer state:
  // exact after the writer quiesces, best-effort on the abort path.
  std::vector<QoeSample> recent_samples() const;

  // Folds `other` in; deterministic when callers merge in ascending shard
  // order (the other's sample ring is not merged — rings are per-writer
  // violation context, not aggregates).
  void merge_from(const QoeShard& other);

  // Releases the Debug-build writer binding (orchestrator→worker handoff).
  void detach_writer() { writer_.detach(); }

 private:
  QoeGroup& group(uint32_t video, int32_t rung);

  ThreadChecker writer_;
  QoeOptions options_;
  std::map<QoeKey, QoeGroup> groups_;
  uint64_t total_requests_ = 0;
  uint32_t video_ = 0;
  int32_t rung_ = 0;
  // Context ring for violation dumps.
  std::vector<QoeSample> ring_;
  size_t ring_next_ = 0;
  uint64_t ring_recorded_ = 0;
  // Cached group pointer for the current (video_, rung_) context.
  QoeGroup* context_group_ = nullptr;
};

// Display name for a ladder rung (matches server/adaptive_video.h's
// ServingMode naming without depending on it): 0 "reactive", 1 "dhb",
// 2 "static", anything else "rung<k>".
const char* qoe_rung_name(int32_t rung);
std::string qoe_rung_label(int32_t rung);

// The ambient sink's QoeShard — the one accessor every recording site goes
// through. Constant nullptr under VOD_OBSERVE=OFF, so recording blocks
// (and their argument computation) fold away entirely.
#ifndef VOD_OBSERVE_DISABLED
inline QoeShard* current_qoe() {
  ObsSink* sink = current_sink();
  return sink != nullptr ? sink->qoe : nullptr;
}
#else
inline constexpr QoeShard* current_qoe() { return nullptr; }
#endif

}  // namespace vod::obs
