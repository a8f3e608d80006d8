// ScheduleAuditor must be non-vacuous: every invariant it claims to check
// is exercised here with a hand-built corruption that a correct audit must
// reject with the specific violation kind (and a clean schedule must pass).
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "analysis/schedule_auditor.h"
#include "core/dhb.h"
#include "schedule/bandwidth_meter.h"
#include "schedule/slot_schedule.h"

namespace vod {

// Test-only backdoor (befriended by SlotSchedule) that corrupts internal
// state in ways the public API forbids, to prove the auditor catches them.
struct SlotScheduleTestPeer {
  // Desynchronizes the per-slot load counter from the real contents.
  static void bump_load(SlotSchedule& s, Slot slot, int delta) {
    s.loads_[s.ring_index(slot)] += delta;
    s.total_ += delta;
  }
  // Plants a slot in the per-segment slab row without scheduling anything.
  static void inject_index_entry(SlotSchedule& s, Segment j, Slot slot) {
    const size_t row = static_cast<size_t>(j);
    if (static_cast<size_t>(s.seg_len_[row]) == s.seg_cap_) s.grow_segments();
    s.seg_row(row)[s.seg_len_[row]++] = slot;
  }
  // Plants a segment in the content ring without indexing it.
  static void inject_ring_entry(SlotSchedule& s, Segment j, Slot slot) {
    const size_t pos = s.ring_index(slot);
    if (static_cast<size_t>(s.contents_len_[pos]) == s.contents_cap_) {
      s.grow_contents();
    }
    s.contents_row(pos)[s.contents_len_[pos]++] = j;
  }
  // Drops the newest indexed instance of segment j (index only).
  static void drop_index_entry(SlotSchedule& s, Segment j) {
    --s.seg_len_[static_cast<size_t>(j)];
  }
};

namespace {

TEST(ScheduleAuditor, CleanScheduleIsAccepted) {
  SlotSchedule s(5, 5);
  s.add_instance(1, 1);
  s.add_instance(2, 2);
  s.add_instance(3, 2);
  ScheduleAuditor auditor;
  const AuditReport report = auditor.audit_schedule(s);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.to_string(), "ok");
}

TEST(ScheduleAuditor, DuplicateFutureInstanceIsRejected) {
  SlotSchedule s(5, 5);
  s.add_instance(2, 1);
  s.add_instance(2, 4);  // legal through the API, illegal for uncapped DHB
  ScheduleAuditor auditor;
  const AuditReport report = auditor.audit_schedule(s);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(AuditViolationKind::kDuplicateFutureInstance))
      << report.to_string();
  // The capped variant is allowed to double-schedule.
  ScheduleAuditor capped(AuditOptions{.allow_multiple_instances = true});
  EXPECT_TRUE(capped.audit_schedule(s).ok());
}

TEST(ScheduleAuditor, OutOfWindowInstanceIsRejected) {
  SlotSchedule s(5, 5);
  s.add_instance(1, 2);
  SlotScheduleTestPeer::inject_index_entry(s, 3, 99);  // beyond now+window
  const AuditReport report = ScheduleAuditor().audit_schedule(s);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(AuditViolationKind::kInstanceOutsideWindow))
      << report.to_string();
}

TEST(ScheduleAuditor, UnsortedIndexIsRejected) {
  SlotSchedule s(5, 5);
  SlotScheduleTestPeer::inject_index_entry(s, 2, 4);
  SlotScheduleTestPeer::inject_index_entry(s, 2, 1);  // breaks ascending order
  const AuditReport report =
      ScheduleAuditor(AuditOptions{.allow_multiple_instances = true})
          .audit_schedule(s);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(AuditViolationKind::kIndexNotSorted))
      << report.to_string();
}

TEST(ScheduleAuditor, StaleLoadCountIsRejected) {
  SlotSchedule s(5, 5);
  s.add_instance(1, 3);
  SlotScheduleTestPeer::bump_load(s, 3, 1);  // counter says 2, reality says 1
  const AuditReport report = ScheduleAuditor().audit_schedule(s);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(AuditViolationKind::kLoadMismatch))
      << report.to_string();
}

TEST(ScheduleAuditor, RingIndexDesyncIsRejected) {
  SlotSchedule s(5, 5);
  s.add_instance(1, 3);
  SlotScheduleTestPeer::inject_ring_entry(s, 4, 3);  // ring-only phantom
  const AuditReport report = ScheduleAuditor().audit_schedule(s);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(AuditViolationKind::kContentsMismatch))
      << report.to_string();
}

TEST(ScheduleAuditor, TotalDriftIsRejected) {
  SlotSchedule s(5, 5);
  s.add_instance(1, 1);
  s.add_instance(2, 2);
  // Dropping an index entry leaves total_scheduled() and the loads ahead of
  // the per-segment index.
  SlotScheduleTestPeer::drop_index_entry(s, 2);
  const AuditReport report = ScheduleAuditor().audit_schedule(s);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(AuditViolationKind::kTotalMismatch))
      << report.to_string();
}

TEST(ScheduleAuditor, ViolationReportNamesTheCorruption) {
  SlotSchedule s(5, 5);
  s.add_instance(2, 1);
  s.add_instance(2, 4);
  const AuditReport report = ScheduleAuditor().audit_schedule(s);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("duplicate-future-instance"),
            std::string::npos)
      << report.to_string();
  EXPECT_NE(report.to_string().find("segment=2"), std::string::npos)
      << report.to_string();
}

TEST(ScheduleAuditor, SchedulerEndToEndStaysClean) {
  DhbConfig config;
  config.num_segments = 12;
  DhbScheduler dhb(config);
  ScheduleAuditor auditor;
  auditor.attach(dhb);
  BandwidthMeter meter;
  for (int step = 0; step < 60; ++step) {
    if (step % 3 == 0) {
      const DhbRequestResult r = dhb.on_request();
      auditor.track_plan(r.plan, 1, dhb.periods());
    }
    const std::span<const Segment> sent = dhb.advance_slot_view();
    meter.add_slot(static_cast<int>(sent.size()));
    EXPECT_TRUE(auditor.on_advance(dhb, sent).ok());
    const AuditReport report = auditor.audit(dhb);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
  EXPECT_TRUE(auditor.audit_meter(meter).ok());
  EXPECT_GT(auditor.live_plans(), 0u);
}

TEST(ScheduleAuditor, PlanDeadlineMissIsRejected) {
  DhbConfig config;
  config.num_segments = 4;
  DhbScheduler dhb(config);
  ScheduleAuditor auditor;
  ClientPlan bogus;
  bogus.arrival_slot = dhb.current_slot();
  bogus.reception_slot = {1, 2, 3, 9};  // deadline for S_4 is slot 4
  auditor.track_plan(bogus, 1, dhb.periods());
  const AuditReport report = auditor.audit(dhb);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(AuditViolationKind::kPlanDeadlineMiss))
      << report.to_string();
}

TEST(ScheduleAuditor, PlanMissingInstanceIsRejected) {
  DhbConfig config;
  config.num_segments = 4;
  DhbScheduler dhb(config);
  ScheduleAuditor auditor;
  ClientPlan bogus;  // in-window plan that nothing ever scheduled
  bogus.arrival_slot = dhb.current_slot();
  bogus.reception_slot = {1, 2, 3, 4};
  auditor.track_plan(bogus, 1, dhb.periods());
  const AuditReport report = auditor.audit(dhb);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(AuditViolationKind::kPlanInstanceMissing))
      << report.to_string();
}

TEST(ScheduleAuditor, TrackedPlansExpire) {
  DhbConfig config;
  config.num_segments = 3;
  DhbScheduler dhb(config);
  ScheduleAuditor auditor;
  const DhbRequestResult r = dhb.on_request();
  auditor.track_plan(r.plan, 1, dhb.periods());
  EXPECT_EQ(auditor.live_plans(), 1u);
  for (int k = 0; k < 4; ++k) dhb.advance_slot_view();
  EXPECT_TRUE(auditor.audit(dhb).ok());
  EXPECT_EQ(auditor.live_plans(), 0u);
}

TEST(ScheduleAuditor, ClockRegressionIsRejected) {
  DhbConfig config;
  config.num_segments = 3;
  DhbScheduler advanced(config);
  advanced.advance_slot_view();
  advanced.advance_slot_view();
  DhbScheduler fresh(config);
  ScheduleAuditor auditor;
  EXPECT_TRUE(auditor.audit(advanced).ok());
  const AuditReport report = auditor.audit(fresh);  // clock jumps 2 -> 0
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(AuditViolationKind::kNonMonotoneClock))
      << report.to_string();
}

TEST(ScheduleAuditor, CounterRegressionIsRejected) {
  DhbConfig config;
  config.num_segments = 3;
  DhbScheduler busy(config);
  busy.on_request();
  DhbScheduler idle(config);
  ScheduleAuditor auditor;
  EXPECT_TRUE(auditor.audit(busy).ok());
  const AuditReport report = auditor.audit(idle);  // counters jump back to 0
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(AuditViolationKind::kCounterRegression))
      << report.to_string();
}

TEST(ScheduleAuditor, InstanceLeakIsRejected) {
  DhbConfig config;
  config.num_segments = 4;
  DhbScheduler dhb(config);
  ScheduleAuditor auditor;
  auditor.attach(dhb);
  dhb.on_request();
  // A skipped on_advance() report looks like instances leaking out of the
  // window without being transmitted.
  dhb.advance_slot_view();
  const AuditReport report = auditor.audit(dhb);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(AuditViolationKind::kInstanceLeak))
      << report.to_string();
}

TEST(ScheduleAuditor, MeterDriftIsRejected) {
  DhbConfig config;
  config.num_segments = 4;
  DhbScheduler dhb(config);
  ScheduleAuditor auditor;
  auditor.attach(dhb);
  BandwidthMeter meter;
  dhb.on_request();
  const std::span<const Segment> sent = dhb.advance_slot_view();
  meter.add_slot(static_cast<int>(sent.size()));
  auditor.on_advance(dhb, sent);
  meter.add_slot(50);  // phantom slot the scheduler never produced
  const AuditReport report = auditor.audit_meter(meter);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(AuditViolationKind::kMeterMismatch))
      << report.to_string();
}

TEST(ScheduleAuditor, AuditOrDieAcceptsHealthyScheduler) {
  DhbConfig config;
  config.num_segments = 8;
  DhbScheduler dhb(config);
  for (int step = 0; step < 20; ++step) {
    dhb.on_request();
    dhb.advance_slot_view();
    audit_or_die(dhb);  // must not fire
  }
}

}  // namespace
}  // namespace vod
