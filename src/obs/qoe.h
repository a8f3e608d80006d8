// Client-perceived QoE accounting: per-request startup wait and continuity,
// recorded per admission into one exemplar histogram per sink and scored
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
// §15). None of the recording paths has a catalog video or a ladder rung,
// so a QoeShard is one stream: every record lands in its one QoeGroup.
// Exemplar histograms keep, per bucket, the worst sample's (request id,
// slot) so a p99 regression in a report links back to a concrete request.
//
// Write-only contract (DESIGN.md §15): recording reads nothing back into
// the simulation, and every call site goes through current_qoe(), which is
// a constant nullptr under VOD_OBSERVE=OFF — the whole layer folds away,
// keeping engine checksums bit-identical with QoE on, off, or compiled out.
//
// Concurrency contract: one writer at a time, no locks; detach_writer()
// hands a shard to the next writer (DESIGN.md §11). Layering: obs sits
// below schedule/core/server, so this API speaks plain integers (slots as
// int64_t) — never vod::Slot or ClientPlan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "obs/slo.h"
#include "obs/trace.h"
#include "sim/stats.h"
#include "util/thread_checker.h"

namespace vod::obs {

// Startup-wait histogram domain: bins of 1/16 slot over [0, 64) separate
// the waits every recorder writes, batching's fractions of a batch
// interval as well as a bounded deferral's whole slots (up to its 50-slot
// default give-up).
inline constexpr double kWaitHiSlots = 64.0;
inline constexpr size_t kWaitBins = 1024;
// "p99 startup wait <= 8 slots": a request is wait-bad when its wait
// exceeds the objective; with a 1% budget the lifetime verdict is exactly
// the p99 claim.
inline constexpr double kWaitObjectiveSlots = 8.0;
inline constexpr double kWaitErrorBudget = 0.01;
// "continuity >= 99.9%": a segment is bad when it misses its deadline.
inline constexpr double kContinuityErrorBudget = 0.001;

// Worst sample retained for one histogram bucket. "Worst" = largest value;
// ties break to the smallest (slot, request_id).
struct QoeExemplar {
  uint64_t request_id = 0;
  int64_t slot = 0;
  double value = 0.0;
};

// vod::Histogram plus a per-bucket worst exemplar.
class ExemplarHistogram {
 public:
  ExemplarHistogram(double lo, double hi, size_t bins);

  void observe(double x, uint64_t request_id, int64_t slot) {
    observe_n(x, 1, request_id, slot);
  }
  void observe_n(double x, uint64_t n, uint64_t request_id, int64_t slot);

  uint64_t count() const { return hist_.count(); }
  double sum() const { return sum_; }
  double quantile(double q) const { return hist_.quantile(q); }
  const Histogram& histogram() const { return hist_; }
  // Parallel to histogram().bins(); entry i is meaningful iff bin i > 0.
  const std::vector<QoeExemplar>& exemplars() const { return exemplars_; }

 private:
  Histogram hist_;
  std::vector<QoeExemplar> exemplars_;
  double sum_ = 0.0;
};

// A shard's accumulators.
struct QoeGroup {
  ExemplarHistogram wait{0.0, kWaitHiSlots, kWaitBins};
  uint64_t admissions = 0;  // record_admission() calls
  uint64_t requests = 0;
  uint64_t segments = 0;
  uint64_t late_segments = 0;
  SloTracker wait_slo{kWaitErrorBudget};
  SloTracker continuity_slo{kContinuityErrorBudget};

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
  double wait_slots = 0.0;
  uint64_t count = 0;
  uint64_t late_segments = 0;  // per request
  uint64_t segments = 0;       // per request
};

// One writer's QoE stream: its group and a recent-sample ring.
class QoeShard {
 public:
  static constexpr size_t kDefaultSampleCapacity = 64;

  explicit QoeShard(size_t sample_capacity = kDefaultSampleCapacity);
  ~QoeShard();

  QoeShard(const QoeShard&) = delete;
  QoeShard& operator=(const QoeShard&) = delete;

  // `count` identical requests admitted during `slot`, each waiting
  // `wait_slots` for its first segment, each missing
  // `late_segments_per_request` of its `segments_per_request` deadlines.
  // Request ids are the shard's admission sequence: a batch of `count`
  // takes the next `count` ids, and its samples carry the first.
  void record_admission(uint64_t count, int64_t slot, double wait_slots,
                        uint64_t late_segments_per_request,
                        uint64_t segments_per_request);

  // Empty until the first record, then the one group.
  std::span<const QoeGroup> groups() const {
    if (!group_) return {};
    return {&*group_, 1};
  }
  uint64_t total_requests() const { return group_ ? group_->requests : 0; }
  // Retained samples, oldest first. Lock-free read of single-writer state:
  // exact after the writer quiesces, best-effort on the abort path.
  std::vector<QoeSample> recent_samples() const;

  // Releases the Debug-build writer binding (orchestrator→worker handoff).
  void detach_writer() { writer_.detach(); }

 private:
  ThreadChecker writer_;
  std::optional<QoeGroup> group_;
  // Context ring for violation dumps.
  std::vector<QoeSample> ring_;
  size_t ring_next_ = 0;
  uint64_t ring_recorded_ = 0;
};

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
