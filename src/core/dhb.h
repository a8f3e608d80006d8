// The Dynamic Heuristic Broadcasting protocol (the paper's contribution).
//
// DhbScheduler implements the algorithm of the paper's Figure 6, including
// the two §4 generalizations:
//   * per-segment maximum periods T[j] (VBR-tuned videos delay high-numbered
//     segments beyond their CBR window), and
//   * an optional client reception-bandwidth cap (the §5 future-work item:
//     limit the STB to c simultaneous streams).
//
// Operation. The scheduler owns a SlotSchedule. A request arriving during
// the current slot i is admitted with on_request(): for each segment S_j
// (j = 1..n) the window (i, i + T[j]] is examined; an existing instance is
// shared when present, otherwise a new instance is placed by the configured
// slot heuristic. advance_slot_view() moves to the next slot and reports
// what the server transmits during it; advance_to() crosses a span of
// slots in one call while the schedule is empty, when every step would
// transmit nothing. Either way the scheduler's clock is the caller's, and
// every plan slot is a slot of the caller's run.
//
// Complexity. State is O(n + window). *Logical* cost is unchanged from the
// paper: a request examines O(sum_j T[j]) window slots (total_slot_probes()
// keeps charging exactly that, for comparability across experiments). The
// *actual* cost rides the schedule's placement fast path: each sharing
// check is O(1) via the latest-instance cache and, above the index cutover
// (DhbConfig::placement_index_cutover), each fresh placement of an
// uncapped, unbounded admission is O(log window) via the range-min index,
// so an admission runs in O(n log window) instead of O(n·window) = O(n²) —
// and requests coalesced into the same slot cost O(1) each (see
// DhbConfig::coalesce_same_slot). Below the cutover the schedule keeps no
// index and placements run the naive scans; capped and bounded
// placements, which must skip the slots a client or channel cap rules
// out, always scan. A full admission into an empty schedule sees only its
// own placements, so under a deterministic heuristic its plan is one
// fixed offset vector shifted by the arrival slot: the scheduler records
// the offsets of its first such admission and commits every later one
// from that record in O(n) (uncapped clients, full requests, any heuristic
// but kRandom; set_heuristic() drops the record). total_work_units() meters
// the actual data-structure operations. Every fast path is bit-identical
// to the naive Figure 6 scans (the differential fuzzer compares them
// decision by decision); set DhbConfig::use_placement_index = false to run
// the naive scans instead.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/heuristics.h"
#include "obs/metrics.h"
#include "schedule/client_plan.h"
#include "schedule/slot_schedule.h"
#include "schedule/types.h"
#include "sim/random.h"
#include "util/check.h"
#include "util/lifetime.h"
#include "util/thread_checker.h"

namespace vod {

struct DhbConfig {
  // Number of segments n (the paper's figures use 99).
  int num_segments = 99;
  // Per-segment maximum periods T[j], 1-based at index j-1. Empty means the
  // CBR base protocol, T[j] = j. Values must satisfy 1 <= T[j] and T[1] = 1;
  // VBR-tuned configurations may have T[j] > j (work-ahead slack).
  std::vector<int> periods;
  // Slot-choice rule; the paper's protocol is kMinLoadLatest.
  SlotHeuristic heuristic = SlotHeuristic::kMinLoadLatest;
  // Maximum simultaneous streams a client may receive; 0 = unlimited (the
  // paper's base protocol).
  int client_stream_cap = 0;
  // Seed for the kRandom heuristic only.
  uint64_t heuristic_seed = 1;
  // Answer min-load placements through the O(log W) range-min index (true)
  // or the literal O(W) Figure 6 scan (false). Same decisions either way;
  // the naive mode exists as the differential-testing oracle. The schedule
  // builds its index only when it is used (placement_index_active()).
  bool use_placement_index = true;
  // Memoize the current-slot full-request plan: under uncapped DHB every
  // further full request arriving in the same slot shares every segment and
  // receives the identical plan (a direct consequence of the §3 sharing
  // invariant), so followers are answered in O(1) without touching the
  // schedule. Bit-identical results and counters either way.
  bool coalesce_same_slot = true;
  // Adaptive cutover for the placement index: with use_placement_index on,
  // the O(log W) range-min index only engages when num_segments * window
  // reaches this product; smaller videos run the naive prefix scan, whose
  // constant factor wins below the threshold (BENCH_admission.json showed
  // the index *losing* 0.56x wall clock at n=20 before the cutover).
  // Measured crossover (CBR, so window = n): the index first beats the
  // scan near n*window ~ 2.5e4 at sparse arrivals and ~6e4 at dense ones,
  // where coalescing absorbs most placements anyway — so the default picks
  // the low-rate knee, rounded to a power of two. 0 disables the cutover
  // (the index always engages — the differential-testing mode). Below the
  // threshold the schedule neither allocates nor maintains an index.
  // Decisions are bit-identical on both sides of the threshold; only
  // total_work_units() accounting differs (naive queries charge the window
  // width).
  uint64_t placement_index_cutover = 32768;
};

struct DhbRequestResult {
  ClientPlan plan;
  int new_instances = 0;     // segments that needed a fresh transmission
  int shared_instances = 0;  // segments shared with earlier requests
  int cap_violations = 0;    // slots where the client cap could not be met
};

class DhbScheduler {
 public:
  explicit DhbScheduler(const DhbConfig& config);

  // Admits a request arriving during the current slot.
  DhbRequestResult on_request();

  // Admits `count` requests arriving during the current slot; equivalent to
  // calling on_request() `count` times (bit-identical schedule, plans, and
  // counters) and returns the last request's result. With coalescing
  // enabled the count-1 followers cost O(1) *total* counter arithmetic —
  // the batch entry point run_multi_video_simulation uses for same-slot
  // Poisson arrivals. Requires count >= 1.
  DhbRequestResult on_request_batch(uint64_t count);

  // Exactly on_request_batch(count) minus the returned plan: the same
  // schedule mutations, memo handling, and counter arithmetic,
  // bit-identically, but nothing is materialized for the caller. The
  // multi-video engine's hot entry point — with a warm scheduler this
  // admits a batch with zero heap allocations (the steady-state
  // allocation audit holds the engine loop to that).
  void on_request_batch_discard(uint64_t count);

  // General range admission: a client that watches segments first..last
  // starting next slot (it watches S_j during slot now + (j - first + 1)).
  // A mid-video join (first > 1) runs under the base windows clamped to
  // those tighter deadlines, so it shares instances with ordinary requests
  // whenever timing allows. on_request() == on_range(1, n), memo included.
  // A VCR resume/seek is on_range(f, n); a declared-length prefix
  // (on_range(1, L)) models a viewer known to leave after L segments — the
  // oracle against which the cost of DHB's never-cancel rule under
  // abandonment is measured (bench/abandonment). The returned plan's
  // reception_slot[0] corresponds to segment `first`.
  DhbRequestResult on_range(Segment first_segment, Segment last_segment);

  // The effective period vector a resume on_range(first_segment, n) runs
  // under (entry 0 corresponds to that segment); pass it to verify_plan.
  std::vector<int> resume_periods(Segment first_segment) const;

  // Channel-bounded admission: admits the request only if every segment
  // can be served without any slot exceeding `channel_cap` concurrent
  // transmissions. Returns nullopt — with NO schedule mutation — when the
  // request would need a 'channel_cap+1'-th channel somewhere; the caller
  // (an admission controller) retries next slot, trading extra client
  // waiting for a hard bandwidth ceiling. Uses the paper's min-load-latest
  // rule restricted to under-cap slots. Unlimited-client-bandwidth only
  // (client_stream_cap must be 0). Records no QoE: only the caller knows
  // how many slots a deferred request has already waited, so the caller
  // (run_dhb_simulation under a channel_cap) records it.
  std::optional<DhbRequestResult> on_request_bounded(int channel_cap);

  // Advances to the next slot; returns the segments the server transmits
  // during it (the per-slot bandwidth in streams is the span's size). The
  // span views the schedule's slab row for the new current slot and is
  // valid until the next mutating call on this scheduler: a caller that
  // keeps the list longer copies it. Allocation-free on a warm scheduler,
  // and O(1) on an empty schedule, where only the clock moves (inline, so
  // a caller's idle steps cost no call).
  std::span<const Segment> advance_slot_view() VOD_LIFETIMEBOUND;

  // Moves the clock of an empty schedule straight to `slot`, which must not
  // be behind current_slot(): exactly what stepping advance_slot_view()
  // up to `slot` would do, since each of those steps transmits nothing,
  // but O(1). VOD_AUDIT builds audit the schedule once, at the target.
  void advance_to(Slot slot);

  // Switches the slot-choice rule live, mid-schedule — the reactive⇄DHB leg
  // of an adaptive protocol transition (server/adaptive_video.h). Committed
  // instances are never moved (the §3 never-cancel rule), so only future
  // placements change; the same-slot coalescing memo and the recorded
  // empty-schedule plan are dropped because both were computed under the
  // old rule. The latest-instance cache and the range-min index (when the
  // schedule keeps one) describe schedule *contents*, which this call does
  // not touch — the placement audit (kPlacementIndexMismatch) stays green
  // across a switch, and tests/adaptive_video_test.cc cross-checks fast ≡
  // naive placement on the admissions immediately after one. No-op when
  // the rule is unchanged.
  void set_heuristic(SlotHeuristic heuristic);

  Slot current_slot() const { return schedule_.now(); }
  const SlotSchedule& schedule() const VOD_LIFETIMEBOUND { return schedule_; }
  const std::vector<int>& periods() const VOD_LIFETIMEBOUND {
    return periods_;
  }
  int num_segments() const { return config_.num_segments; }
  const DhbConfig& config() const VOD_LIFETIMEBOUND { return config_; }

  // True when admissions run through the range-min placement index: the
  // config asks for it AND the video clears the adaptive cutover
  // (num_segments * window >= placement_index_cutover). Fixed at
  // construction, and exactly when the schedule keeps an index; exposed so
  // benches and tests can assert which side of the cutover a configuration
  // landed on.
  bool placement_index_active() const { return use_index_; }

  // True once any clamped-window admission (a mid-video on_range) has
  // run. Such admissions may legally schedule a second
  // future instance of a segment, so auditors must drop the strict
  // ≤1-instance sharing check for this scheduler's lifetime.
  bool had_clamped_admissions() const { return had_clamped_admissions_; }

  // Lifetime counters (for the scheduling-cost analysis of §3), plain
  // fields whose metric names appear once, in export_metrics().
  // total_requests() counts admissions only; a bounded admission that was
  // refused shows up in total_rejected_admissions() instead, so the §3
  // probes-per-attempt metric is
  // total_slot_probes() / (total_requests() + total_rejected_admissions()).
  uint64_t total_requests() const { return requests_; }
  uint64_t total_new_instances() const { return new_instances_; }
  uint64_t total_shared() const { return shared_; }
  uint64_t total_slot_probes() const { return probes_; }
  uint64_t total_rejected_admissions() const { return rejected_; }

  // Actual data-structure operations performed, as opposed to the logical
  // slot probes above: 1 per sharing check, plus a placement-attempt charge
  // of query + commit (an uncapped placement through the index: 1 + 1; a
  // scan — below the cutover, or any capped or bounded placement:
  // window-width + 1, the commit charged only when an instance is placed),
  // plus 1 per coalesced follower (the memo copy). An admission replayed
  // from the recorded empty-schedule plan is charged the index price
  // either side of the cutover: 3 per segment (share check + query +
  // commit). ScheduleAuditor asserts the conservation law
  //   work_units >= requests + 2 * new_instances + rejected.
  uint64_t total_work_units() const { return work_; }

  // Requests answered from the same-slot plan memo without touching the
  // schedule (always 0 when coalesce_same_slot is off).
  uint64_t total_coalesced_requests() const { return coalesced_; }

  // Adds this scheduler's counters into `out` under their exported names
  // (dhb_requests_total, dhb_work_units_total, ...), plus the admission-
  // outcome tallies and the schedule_* structural-op meters of the
  // SlotSchedule/LoadIndex fast path — how the simulation loops, and the
  // multi-video engine's per-shard registry shards, collect a scheduler's
  // accounting.
  void export_metrics(obs::MetricShard* out) const;

 private:
  // Slot choice restricted to slots where the client still has reception
  // capacity; nullopt when no slot in [lo, hi] qualifies. `client_load`
  // has window_ entries (window_counts_).
  std::optional<Slot> choose_capped_slot(Slot lo, Slot hi,
                                         const int* client_load,
                                         Slot arrival) const;

  // The one unbounded admission path behind on_request(),
  // on_request_batch(), on_request_batch_discard() and on_range(): admits
  // `count` requests for segments first..last arriving in the current
  // slot and returns the last one's result (result_scratch_ or
  // memo_result_, valid until the next mutating call). With coalescing on
  // and uncapped clients, a full request (1..n) is answered from the
  // same-slot memo when one is valid; otherwise the first runs admit() as
  // the leader and the rest are followers, charged in bulk. Every other
  // admission runs admit() once per request. Requires count >= 1.
  const DhbRequestResult& admit_batch(Segment first_segment,
                                      Segment last_segment, uint64_t count);

  // One Figure 6 admission under windows
  // (now, now + min(T[j], j - first + 1)], written into result_scratch_
  // (plan storage is reused across calls, so a warm scheduler admits
  // without allocating). A capped admission also records its QoE: it is
  // the one admission whose continuity can miss.
  void admit(Segment first_segment, Segment last_segment);

  // Fills empty_plan_ from the plan admit() just wrote into
  // result_scratch_; and admit(1, n) into an empty schedule, committed
  // from empty_plan_ in O(n) instead of running the loop.
  void record_empty_plan();
  void replay_empty_plan();

  // End of every admission that reached the schedule (admit() and a
  // successful on_request_bounded()): the lifetime counters, which are
  // also the admission outcomes the observability layer exports.
  void finish_admission(const DhbRequestResult& result);

  // Single-writer discipline (DESIGN.md §11): a scheduler — its schedule,
  // rng, memo, and lifetime counters — is mutated by one thread at a time.
  // The sharded engine honors this by giving every video its own scheduler
  // on one worker; Debug builds enforce it on each mutating entry point via
  // VOD_DCHECK_SERIAL.
  ThreadChecker serial_;

  DhbConfig config_;
  std::vector<int> periods_;  // resolved T[], index j-1
  int window_;                // max_j T[j]
  bool use_index_;            // placement_index_active(): cutover resolved
  uint64_t sum_periods_;      // sum_j T[j]: the probe charge of one request
  SlotSchedule schedule_;
  Rng rng_;

  // Lifetime counters; export_metrics() names them.
  uint64_t requests_ = 0;
  uint64_t new_instances_ = 0;
  uint64_t shared_ = 0;
  uint64_t probes_ = 0;
  uint64_t rejected_ = 0;
  uint64_t work_ = 0;
  uint64_t coalesced_ = 0;
  uint64_t admissions_placed_ = 0;      // admissions placing >= 1 instance
  uint64_t admissions_all_shared_ = 0;  // admissions sharing every segment
  uint64_t cap_violations_ = 0;         // client-cap violation slots
  uint64_t index_queries_ = 0;          // placements the range-min index ran
  bool had_clamped_admissions_ = false;

  // Same-slot coalescing memo: once a full request has been admitted in the
  // current slot, every further full request this slot gets `memo_result_`
  // (the follower view: all segments shared). Invalidated by the clock and
  // by any admission that may mutate the schedule under different windows.
  bool memo_valid_ = false;
  DhbRequestResult memo_result_;

  // Empty-schedule plan: reception slot minus arrival slot, per segment, of
  // this scheduler's first full uncapped admission into an empty schedule
  // under the current (deterministic) heuristic; empty until one has run.
  // Such an admission sees no load but its own placements, so every later
  // one places the same offsets (replay_empty_plan()). Filled from this
  // scheduler's own history only; set_heuristic() drops it.
  std::vector<Slot> empty_plan_;

  // Reusable admission result; admit() and on_request_bounded() write
  // here and the public entry points copy out when their signature
  // returns by value (the discard batch path never does, and a refused
  // bounded attempt returns nullopt).
  DhbRequestResult result_scratch_;

  // Per-admission scratch, reused so a warm admission allocates nothing.
  // One count per window slot (entry k is slot arrival + 1 + k): a capped
  // client's receptions (sized at construction when client_stream_cap > 0)
  // or a bounded admission's tentative placements (sized on first use).
  // Bounded admission requires a cap of 0, so the two never share an
  // admission.
  std::vector<int> window_counts_;
  // A bounded admission's placements, committed only once every segment
  // has found a slot; sized on first use.
  struct Placement {
    Segment segment;
    Slot slot;
  };
  std::vector<Placement> placements_;
};

#ifdef VOD_AUDIT
// Implemented in analysis/schedule_auditor.cc. Declared here instead of
// including the header: analysis sits above every engine layer and nothing
// below it may depend on it (scripts/lint_layering.py), so audit builds
// reach the auditor through this forward declaration — a link-time hook,
// not an include edge.
void audit_or_die(const DhbScheduler& scheduler);
#endif

inline std::span<const Segment> DhbScheduler::advance_slot_view() {
  VOD_DCHECK_SERIAL(serial_);
  if (schedule_.total_scheduled() == 0) {
    // Every admission that succeeds leaves an instance in the window, so
    // none has run since the last step (a refused bounded one invalidates
    // the memo itself): the memo is already invalid. Only the clock moves.
    VOD_DCHECK(!memo_valid_);
  } else {
    memo_valid_ = false;  // plans are per-arrival-slot; the clock moved
  }
  const std::span<const Segment> out = schedule_.advance();
#ifdef VOD_AUDIT
  // Self-checking builds (cmake -DVOD_AUDIT=ON): deep-audit the schedule
  // invariants after every slot, empty ones included; abort with a
  // violation report on failure.
  audit_or_die(*this);
#endif
  return out;
}

inline void DhbScheduler::advance_to(Slot slot) {
  VOD_DCHECK_SERIAL(serial_);
  // SlotSchedule::advance_to checks the schedule is empty; the memo then
  // already is invalid (see advance_slot_view()).
  schedule_.advance_to(slot);
  VOD_DCHECK(!memo_valid_);
#ifdef VOD_AUDIT
  audit_or_die(*this);
#endif
}

}  // namespace vod
