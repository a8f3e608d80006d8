// Runtime invariant auditor for slotted dynamic-broadcasting schedules.
//
// The paper's §3 correctness argument rests on a small set of invariants;
// this module checks all of them mechanically against live scheduler state,
// so aggressive refactors of the scheduling core are caught by tests (and,
// under VOD_AUDIT builds, by every simulation) instead of by plot drift.
//
// Invariants audited:
//   * sharing      — each segment has at most one scheduled future instance.
//                    This is the paper's §3 invariant and holds for uniform
//                    windows (pure on_request workloads). Clamped-window
//                    admissions (mid-video on_range) and the client-
//                    bandwidth-capped variant may legally double-schedule;
//                    exempt them via AuditOptions::allow_multiple_instances;
//   * containment  — every instance lies in (now, now+window], the
//                    per-segment index is sorted and duplicate-free, and
//                    every live client plan's future receptions lie in the
//                    plan's own window (arrival, arrival + T[j]] and point
//                    at a slot where the segment really is scheduled (DHB
//                    never moves or cancels an instance);
//   * load         — the per-slot load counters, the per-slot content ring,
//                    the per-segment index, and total_scheduled() all agree;
//   * placement    — the O(log W) placement fast path answers exactly like
//                    the naive scans it replaces: the latest-instance cache
//                    equals the back of every per-segment list, and the
//                    range-min index reproduces the linear min-load scan
//                    (both tie-break directions) for every admission window
//                    (now, hi]. Skipped on a schedule without an index
//                    (below the DhbConfig::placement_index_cutover);
//   * clock        — the slot clock never moves backwards, and advances by
//                    exactly one per observed advance_slot_view();
//   * conservation — lifetime counters (incl. rejected bounded admissions
//                    and work units) only grow, slot probes cover the
//                    admitted segment demand plus every rejected attempt,
//                    work units cover every request, placement, and
//                    rejection (work >= requests + 2·new + rejected, by the
//                    pricing in core/dhb.cc), and (once attached)
//                    every new instance is transmitted exactly once:
//                    new_instances == transmitted so far + still scheduled;
//   * metering     — a BandwidthMeter fed one add_slot per advance agrees
//                    with the auditor's own count/mean/max accounting.
//
// Two usage modes:
//   * deep audit   — construct a ScheduleAuditor, optionally attach() it to
//                    a scheduler and feed it plans/advances, then call
//                    audit() / audit_schedule() and inspect the AuditReport;
//   * debug hook   — audit_or_die(scheduler) aborts through VOD_CHECK on
//                    the first violation. DhbScheduler::advance_slot_view()
//                    and advance_to() call it automatically in VOD_AUDIT
//                    builds (cmake -DVOD_AUDIT=ON), making every simulation
//                    self-checking.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "schedule/client_plan.h"
#include "schedule/slot_schedule.h"
#include "schedule/types.h"

namespace vod {

class BandwidthMeter;
class DhbScheduler;

enum class AuditViolationKind {
  kDuplicateFutureInstance,  // >1 future instance of one segment (uncapped)
  kInstanceOutsideWindow,    // indexed instance outside (now, now+window]
  kIndexNotSorted,           // per-segment slot list not strictly ascending
  kLoadMismatch,             // load(s) disagrees with the instances in s
  kContentsMismatch,         // content ring disagrees with per-segment index
  kTotalMismatch,            // total_scheduled() != sum of per-slot loads
  kPlanDeadlineMiss,         // a plan reception lies outside its window
  kPlanInstanceMissing,      // a future plan reception has no instance
  kNonMonotoneClock,         // now() went backwards / skipped a slot
  kCounterRegression,        // a lifetime counter decreased or disagrees
  kInstanceLeak,             // new instances != transmitted + scheduled
  kMeterMismatch,            // BandwidthMeter disagrees with observed slots
  kPlacementIndexMismatch,   // fast placement path != naive scan answer
  kTransitionCoverageGap,    // a committed reception was never transmitted
                             // (the adaptive-migration invariant;
                             // analysis/transition_auditor.h)
};

// Stable name for a violation kind ("duplicate-future-instance", ...).
std::string to_string(AuditViolationKind kind);

struct AuditViolation {
  AuditViolationKind kind;
  Segment segment = 0;  // 0 when the violation is not about one segment
  Slot slot = 0;        // 0 when the violation is not about one slot
  std::string message;  // specific human-readable report
};

struct AuditReport {
  std::vector<AuditViolation> violations;

  bool ok() const { return violations.empty(); }
  bool has(AuditViolationKind kind) const;
  // One line per violation; "ok" when clean.
  std::string to_string() const;
};

struct AuditOptions {
  // Set when the workload may legitimately schedule several future
  // instances of one segment: the client-bandwidth-capped variant
  // (DhbConfig::client_stream_cap > 0), or any mix containing mid-video
  // on_range() admissions (their clamped windows can miss an instance
  // scheduled beyond the tightened deadline).
  bool allow_multiple_instances = false;
};

class ScheduleAuditor {
 public:
  explicit ScheduleAuditor(AuditOptions options = {});

  // Structural deep audit of a schedule alone: sharing, containment, load,
  // and index-consistency invariants. Stateless; const.
  AuditReport audit_schedule(const SlotSchedule& schedule) const;

  // Full audit of a scheduler: audit_schedule() plus clock monotonicity,
  // counter conservation, tracked client plans, and (when attached) the
  // instance-conservation law. Stateful: remembers the clock and counters
  // it last saw, so call it on one scheduler only.
  AuditReport audit(const DhbScheduler& scheduler);

  // Captures baseline counters so audit() can also enforce the instance
  // conservation law (new instances == transmitted + still scheduled).
  // Call before the first admission, and report every
  // advance_slot_view() result through on_advance().
  void attach(const DhbScheduler& scheduler);

  // Registers an admitted plan for window-containment auditing. `periods`
  // is the effective per-entry maximum-delay vector the admission ran
  // under: scheduler.periods() for on_request()/on_request_bounded(),
  // resume_periods(first) for a resume on_range(first, n), and the
  // appropriate prefix for other ranges. Expired plans are pruned
  // automatically.
  void track_plan(const ClientPlan& plan, Segment first_segment,
                  std::vector<int> periods);

  // Reports one advance_slot_view() outcome: checks the clock moved
  // forward by exactly one and accumulates the transmitted-instance
  // statistics the conservation and metering audits use.
  AuditReport on_advance(const DhbScheduler& scheduler,
                         std::span<const Segment> transmitted);

  // Compares a meter fed exactly one add_slot(transmitted.size()) per
  // observed on_advance() — and no warmup trimming — with the auditor's
  // own accounting.
  AuditReport audit_meter(const BandwidthMeter& meter) const;

  uint64_t advances_seen() const { return advances_seen_; }
  uint64_t transmitted_seen() const { return transmitted_seen_; }
  size_t live_plans() const { return plans_.size(); }

 private:
  struct TrackedPlan {
    ClientPlan plan;
    Segment first_segment;
    std::vector<int> periods;
    Slot last_reception;  // prune once now >= this
  };

  void check_clock(const DhbScheduler& scheduler, AuditReport* report);
  void check_counters(const DhbScheduler& scheduler, AuditReport* report);
  void check_plans(const DhbScheduler& scheduler, AuditReport* report);

  AuditOptions options_;

  // Clock / counter snapshots from the previous audit() or on_advance().
  bool seen_scheduler_ = false;
  Slot last_now_ = 0;
  uint64_t last_requests_ = 0;
  uint64_t last_new_ = 0;
  uint64_t last_shared_ = 0;
  uint64_t last_probes_ = 0;
  uint64_t last_rejected_ = 0;
  uint64_t last_work_units_ = 0;
  uint64_t last_coalesced_ = 0;

  // Conservation baseline (attach()).
  bool attached_ = false;
  uint64_t base_new_ = 0;
  int base_scheduled_ = 0;

  // Advance accounting.
  uint64_t advances_seen_ = 0;
  uint64_t transmitted_seen_ = 0;
  int max_transmitted_ = 0;

  std::vector<TrackedPlan> plans_;
};

// The cheap per-slot debug hook: deep-audits `scheduler` (structural
// invariants only — no plan tracking) and aborts through VOD_CHECK with the
// report text on the first violation. Compiled in always; called on every
// advance_slot_view() (inline in core/dhb.h) in code built with VOD_AUDIT.
void audit_or_die(const DhbScheduler& scheduler);

}  // namespace vod
