#include "analysis/schedule_auditor.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <sstream>

#include "core/dhb.h"
#include "obs/trace.h"
#include "schedule/bandwidth_meter.h"
#include "util/check.h"

namespace vod {
namespace {

void add_violation(AuditReport* report, AuditViolationKind kind,
                   Segment segment, Slot slot, std::string message) {
  // Every failed invariant also lands in the ambient trace/metric sink, so
  // a Perfetto timeline shows *where in slot time* the schedule went bad
  // and vod_audit_violations_total alerts without parsing report text.
  VOD_TRACE_INSTANT("audit/violation", "audit", slot,
                    {"kind", static_cast<int64_t>(kind)},
                    {"segment", segment});
  VOD_METRIC_INC("audit_violations_total", 1);
  report->violations.push_back(
      AuditViolation{kind, segment, slot, std::move(message)});
}

std::string describe(const AuditViolation& v) {
  std::ostringstream out;
  out << to_string(v.kind);
  if (v.segment != 0) out << " segment=" << v.segment;
  if (v.slot != 0) out << " slot=" << v.slot;
  if (!v.message.empty()) out << ": " << v.message;
  return out.str();
}

}  // namespace

std::string to_string(AuditViolationKind kind) {
  switch (kind) {
    case AuditViolationKind::kDuplicateFutureInstance:
      return "duplicate-future-instance";
    case AuditViolationKind::kInstanceOutsideWindow:
      return "instance-outside-window";
    case AuditViolationKind::kIndexNotSorted:
      return "index-not-sorted";
    case AuditViolationKind::kLoadMismatch:
      return "load-mismatch";
    case AuditViolationKind::kContentsMismatch:
      return "contents-mismatch";
    case AuditViolationKind::kTotalMismatch:
      return "total-mismatch";
    case AuditViolationKind::kPlanDeadlineMiss:
      return "plan-deadline-miss";
    case AuditViolationKind::kPlanInstanceMissing:
      return "plan-instance-missing";
    case AuditViolationKind::kNonMonotoneClock:
      return "non-monotone-clock";
    case AuditViolationKind::kCounterRegression:
      return "counter-regression";
    case AuditViolationKind::kInstanceLeak:
      return "instance-leak";
    case AuditViolationKind::kMeterMismatch:
      return "meter-mismatch";
    case AuditViolationKind::kPlacementIndexMismatch:
      return "placement-index-mismatch";
    case AuditViolationKind::kTransitionCoverageGap:
      return "transition-coverage-gap";
  }
  return "?";
}

bool AuditReport::has(AuditViolationKind kind) const {
  return std::any_of(violations.begin(), violations.end(),
                     [kind](const AuditViolation& v) { return v.kind == kind; });
}

std::string AuditReport::to_string() const {
  if (ok()) return "ok";
  std::ostringstream out;
  for (size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) out << "; ";
    out << describe(violations[i]);
  }
  return out.str();
}

ScheduleAuditor::ScheduleAuditor(AuditOptions options) : options_(options) {}

AuditReport ScheduleAuditor::audit_schedule(const SlotSchedule& s) const {
  AuditReport report;
  const Slot now = s.now();
  const Slot horizon = now + s.window();

  // Per-segment index: containment, ordering, and the sharing invariant.
  // The per-slot tally reuses one buffer per thread, so a clean audit —
  // the per-slot hook of VOD_AUDIT builds — allocates nothing once warm.
  thread_local std::vector<int> counted;
  counted.assign(static_cast<size_t>(s.window()) + 1, 0);
  int indexed_total = 0;
  for (Segment j = 1; j <= s.num_segments(); ++j) {
    const std::span<const Slot> slots = s.instances_of(j);
    if (slots.empty() != !s.has_future_instance(j)) {
      add_violation(&report, AuditViolationKind::kContentsMismatch, j, 0,
                    "has_future_instance disagrees with instances_of");
    }
    const Slot cached_latest = s.latest_instance(j);
    const Slot true_latest = slots.empty() ? 0 : slots.back();
    if (cached_latest != true_latest) {
      std::ostringstream msg;
      msg << "latest-instance cache says " << cached_latest
          << ", per-segment index says " << true_latest;
      add_violation(&report, AuditViolationKind::kPlacementIndexMismatch, j,
                    cached_latest, msg.str());
    }
    if (!options_.allow_multiple_instances && slots.size() > 1) {
      std::ostringstream msg;
      msg << slots.size() << " future instances scheduled";
      add_violation(&report, AuditViolationKind::kDuplicateFutureInstance, j,
                    slots.back(), msg.str());
    }
    Slot prev = 0;
    for (Slot slot : slots) {
      if (prev != 0 && slot <= prev) {
        add_violation(&report, AuditViolationKind::kIndexNotSorted, j, slot,
                      "per-segment slot list not strictly ascending");
      }
      prev = slot;
      if (slot <= now || slot > horizon) {
        std::ostringstream msg;
        msg << "instance at slot " << slot << " outside (" << now << ", "
            << horizon << "]";
        add_violation(&report, AuditViolationKind::kInstanceOutsideWindow, j,
                      slot, msg.str());
        continue;  // out-of-window slots cannot be attributed to the ring
      }
      ++counted[static_cast<size_t>(slot - now - 1)];
      ++indexed_total;
    }
  }

  // Per-slot load counters and the content ring against the index.
  int load_total = 0;
  for (Slot slot = now + 1; slot <= horizon; ++slot) {
    const int load = s.load(slot);
    load_total += load;
    const int indexed = counted[static_cast<size_t>(slot - now - 1)];
    if (load != indexed) {
      std::ostringstream msg;
      msg << "load counter says " << load << ", per-segment index says "
          << indexed;
      add_violation(&report, AuditViolationKind::kLoadMismatch, 0, slot,
                    msg.str());
    }
    const std::span<const Segment> ring = s.contents(slot);
    bool ring_matches = static_cast<int>(ring.size()) == indexed;
    if (ring_matches) {
      for (Segment j : ring) {
        const std::span<const Slot> slots = s.instances_of(j);
        const auto begin = std::lower_bound(slots.begin(), slots.end(), slot);
        const auto end = std::upper_bound(begin, slots.end(), slot);
        const auto ring_count = std::count(ring.begin(), ring.end(), j);
        if (end - begin != ring_count) {
          ring_matches = false;
          break;
        }
      }
    }
    if (!ring_matches) {
      std::ostringstream msg;
      msg << "content ring holds " << ring.size()
          << " instances that do not match the per-segment index";
      add_violation(&report, AuditViolationKind::kContentsMismatch, 0, slot,
                    msg.str());
    }
  }

  if (s.total_scheduled() != load_total ||
      s.total_scheduled() != indexed_total) {
    std::ostringstream msg;
    msg << "total_scheduled=" << s.total_scheduled() << ", per-slot loads sum "
        << load_total << ", per-segment index holds " << indexed_total;
    add_violation(&report, AuditViolationKind::kTotalMismatch, 0, 0,
                  msg.str());
  }

  // Range-min placement index vs the naive Figure 6 scans, for every
  // admission window (now, hi] the scheduler can issue (admissions always
  // start at now+1). The naive answers grow incrementally with hi: "min
  // load, ties latest" adopts a new slot on load <= min, "ties earliest"
  // only on load < min. Skipped on a schedule that keeps no index (a video
  // below the index cutover).
  if (s.has_placement_index()) {
    Slot best_latest = 0;
    Slot best_earliest = 0;
    int best_latest_load = 0;
    int best_earliest_load = 0;
    for (Slot hi = now + 1; hi <= horizon; ++hi) {
      const int load = s.load(hi);
      if (best_latest == 0 || load <= best_latest_load) {
        best_latest = hi;
        best_latest_load = load;
      }
      if (best_earliest == 0 || load < best_earliest_load) {
        best_earliest = hi;
        best_earliest_load = load;
      }
      const SlotSchedule::MinLoad latest = s.min_load_latest(now + 1, hi);
      const SlotSchedule::MinLoad earliest = s.min_load_earliest(now + 1, hi);
      if (latest.slot != best_latest || latest.load != best_latest_load ||
          earliest.slot != best_earliest ||
          earliest.load != best_earliest_load) {
        std::ostringstream msg;
        msg << "window (" << now << ", " << hi << "]: index says latest "
            << latest.slot << "@" << latest.load << " / earliest "
            << earliest.slot << "@" << earliest.load << ", naive scan says "
            << best_latest << "@" << best_latest_load << " / "
            << best_earliest << "@" << best_earliest_load;
        add_violation(&report, AuditViolationKind::kPlacementIndexMismatch, 0,
                      hi, msg.str());
      }
    }
  }
  return report;
}

void ScheduleAuditor::check_clock(const DhbScheduler& d, AuditReport* report) {
  const Slot now = d.current_slot();
  if (seen_scheduler_ && now < last_now_) {
    std::ostringstream msg;
    msg << "clock moved backwards: " << last_now_ << " -> " << now;
    add_violation(report, AuditViolationKind::kNonMonotoneClock, 0, now,
                  msg.str());
  }
  seen_scheduler_ = true;
  last_now_ = std::max(last_now_, now);
}

void ScheduleAuditor::check_counters(const DhbScheduler& d,
                                     AuditReport* report) {
  const uint64_t requests = d.total_requests();
  const uint64_t fresh = d.total_new_instances();
  const uint64_t shared = d.total_shared();
  const uint64_t probes = d.total_slot_probes();
  const uint64_t rejected = d.total_rejected_admissions();
  const uint64_t work = d.total_work_units();
  const uint64_t coalesced = d.total_coalesced_requests();
  if (requests < last_requests_ || fresh < last_new_ || shared < last_shared_ ||
      probes < last_probes_ || rejected < last_rejected_ ||
      work < last_work_units_ || coalesced < last_coalesced_) {
    std::ostringstream msg;
    msg << "a lifetime counter decreased (requests " << last_requests_
        << "->" << requests << ", new " << last_new_ << "->" << fresh
        << ", shared " << last_shared_ << "->" << shared << ", probes "
        << last_probes_ << "->" << probes << ", rejected " << last_rejected_
        << "->" << rejected << ", work " << last_work_units_ << "->" << work
        << ", coalesced " << last_coalesced_ << "->" << coalesced << ")";
    add_violation(report, AuditViolationKind::kCounterRegression, 0, 0,
                  msg.str());
  }
  // Probe conservation: every admitted segment examined at least one slot,
  // and every rejected bounded admission probed at least segment 1's
  // window before refusing, so probes can never undercount the admitted
  // segment demand plus the rejected attempts.
  if (probes < fresh + shared + rejected) {
    std::ostringstream msg;
    msg << "slot probes (" << probes << ") below admitted segment demand + "
        << "rejected attempts (" << fresh + shared + rejected << ")";
    add_violation(report, AuditViolationKind::kCounterRegression, 0, 0,
                  msg.str());
  }
  // Work-unit conservation (see the pricing table in core/dhb.cc): every
  // admitted request makes at least one sharing check or memo copy, every
  // placed instance costs a query plus a commit, and every rejection pays
  // its failed query — in both index and naive mode.
  if (work < requests + 2 * fresh + rejected) {
    std::ostringstream msg;
    msg << "work units (" << work << ") below requests + 2*new + rejected ("
        << requests + 2 * fresh + rejected << ")";
    add_violation(report, AuditViolationKind::kCounterRegression, 0, 0,
                  msg.str());
  }
  // Coalesced followers are a subset of the requests, and each shared a
  // full plan's worth of segments.
  if (coalesced > requests ||
      shared < coalesced * static_cast<uint64_t>(d.num_segments())) {
    std::ostringstream msg;
    msg << "coalesced followers (" << coalesced
        << ") inconsistent with requests (" << requests << ") / shared ("
        << shared << ")";
    add_violation(report, AuditViolationKind::kCounterRegression, 0, 0,
                  msg.str());
  }
  last_requests_ = requests;
  last_new_ = fresh;
  last_shared_ = shared;
  last_probes_ = probes;
  last_rejected_ = rejected;
  last_work_units_ = work;
  last_coalesced_ = coalesced;

  if (attached_) {
    // Every new instance is transmitted exactly once: instances created
    // since attach() either already left through advance_slot_view() or
    // are still in the window. DHB never cancels, so this is an equality.
    const uint64_t created = fresh - base_new_;
    const int64_t still_scheduled =
        d.schedule().total_scheduled() - base_scheduled_;
    if (static_cast<int64_t>(created) !=
        static_cast<int64_t>(transmitted_seen_) + still_scheduled) {
      std::ostringstream msg;
      msg << "created " << created << " instances but transmitted "
          << transmitted_seen_ << " with " << still_scheduled
          << " still scheduled";
      add_violation(report, AuditViolationKind::kInstanceLeak, 0, 0,
                    msg.str());
    }
  }
}

void ScheduleAuditor::check_plans(const DhbScheduler& d, AuditReport* report) {
  const Slot now = d.current_slot();
  std::erase_if(plans_,
                [now](const TrackedPlan& t) { return t.last_reception <= now; });
  for (const TrackedPlan& t : plans_) {
    const int entries = t.plan.num_segments();
    for (int k = 0; k < entries; ++k) {
      const Segment j = t.first_segment + k;
      const Slot reception = t.plan.reception_slot[static_cast<size_t>(k)];
      const Slot deadline =
          t.plan.arrival_slot + t.periods[static_cast<size_t>(k)];
      if (reception <= t.plan.arrival_slot || reception > deadline) {
        std::ostringstream msg;
        msg << "reception at slot " << reception << " outside window ("
            << t.plan.arrival_slot << ", " << deadline << "]";
        add_violation(report, AuditViolationKind::kPlanDeadlineMiss, j,
                      reception, msg.str());
      }
      if (reception > now) {
        const std::span<const Slot> slots = d.schedule().instances_of(j);
        if (!std::binary_search(slots.begin(), slots.end(), reception)) {
          std::ostringstream msg;
          msg << "plan expects segment " << j << " in slot " << reception
              << " but no instance is scheduled there";
          add_violation(report, AuditViolationKind::kPlanInstanceMissing, j,
                        reception, msg.str());
        }
      }
    }
  }
}

AuditReport ScheduleAuditor::audit(const DhbScheduler& d) {
  AuditReport report = audit_schedule(d.schedule());
  check_clock(d, &report);
  check_counters(d, &report);
  check_plans(d, &report);
  return report;
}

void ScheduleAuditor::attach(const DhbScheduler& d) {
  attached_ = true;
  base_new_ = d.total_new_instances();
  base_scheduled_ = d.schedule().total_scheduled();
  advances_seen_ = 0;
  transmitted_seen_ = 0;
  max_transmitted_ = 0;
}

void ScheduleAuditor::track_plan(const ClientPlan& plan, Segment first_segment,
                                 std::vector<int> periods) {
  VOD_CHECK_MSG(static_cast<int>(periods.size()) == plan.num_segments(),
                "tracked plan needs one period per reception entry");
  Slot last = plan.arrival_slot;
  for (Slot s : plan.reception_slot) last = std::max(last, s);
  plans_.push_back(TrackedPlan{plan, first_segment, std::move(periods), last});
}

AuditReport ScheduleAuditor::on_advance(const DhbScheduler& d,
                                        std::span<const Segment> transmitted) {
  AuditReport report;
  const Slot now = d.current_slot();
  if (seen_scheduler_ && now != last_now_ + 1) {
    std::ostringstream msg;
    msg << "advance moved the clock " << last_now_ << " -> " << now;
    add_violation(&report, AuditViolationKind::kNonMonotoneClock, 0, now,
                  msg.str());
  }
  seen_scheduler_ = true;
  last_now_ = std::max(last_now_, now);
  ++advances_seen_;
  transmitted_seen_ += transmitted.size();
  max_transmitted_ =
      std::max(max_transmitted_, static_cast<int>(transmitted.size()));
  return report;
}

AuditReport ScheduleAuditor::audit_meter(const BandwidthMeter& meter) const {
  AuditReport report;
  if (meter.measured_slots() != advances_seen_) {
    std::ostringstream msg;
    msg << "meter measured " << meter.measured_slots() << " slots, auditor saw "
        << advances_seen_;
    add_violation(&report, AuditViolationKind::kMeterMismatch, 0, 0,
                  msg.str());
  }
  if (advances_seen_ == 0) return report;
  const double mean = static_cast<double>(transmitted_seen_) /
                      static_cast<double>(advances_seen_);
  if (std::abs(meter.mean_streams() - mean) > 1e-9 * (1.0 + mean)) {
    std::ostringstream msg;
    msg << "meter mean " << meter.mean_streams() << " != observed " << mean;
    add_violation(&report, AuditViolationKind::kMeterMismatch, 0, 0,
                  msg.str());
  }
  if (meter.max_streams() != static_cast<double>(max_transmitted_)) {
    std::ostringstream msg;
    msg << "meter max " << meter.max_streams() << " != observed "
        << max_transmitted_;
    add_violation(&report, AuditViolationKind::kMeterMismatch, 0, 0,
                  msg.str());
  }
  return report;
}

void audit_or_die(const DhbScheduler& scheduler) {
  ScheduleAuditor auditor(
      AuditOptions{.allow_multiple_instances =
                       scheduler.config().client_stream_cap > 0 ||
                       scheduler.had_clamped_admissions()});
  const AuditReport report = auditor.audit_schedule(scheduler.schedule());
  VOD_CHECK_MSG(report.ok(), report.to_string().c_str());
}

}  // namespace vod
