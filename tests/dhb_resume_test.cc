// VCR resume / seek support: on_range(f, n) admits a client that watches
// segments f..n starting next slot (pause-resume, or a seek to segment f).
#include <gtest/gtest.h>

#include "core/dhb.h"
#include "sim/random.h"

namespace vod {
namespace {

DhbConfig small_config(int n) {
  DhbConfig c;
  c.num_segments = n;
  return c;
}

TEST(DhbResume, ResumeAtOneIsOnRequest) {
  DhbScheduler a(small_config(8));
  DhbScheduler b(small_config(8));
  a.advance_slot_view();
  b.advance_slot_view();
  const DhbRequestResult ra = a.on_request();
  const DhbRequestResult rb = b.on_range(1, 8);
  EXPECT_EQ(ra.plan.reception_slot, rb.plan.reception_slot);
  EXPECT_EQ(ra.new_instances, rb.new_instances);
}

TEST(DhbResume, IdleResumeSchedulesSuffixOnly) {
  DhbScheduler s(small_config(6));
  s.advance_slot_view();
  const DhbRequestResult r = s.on_range(4, 6);
  // Only S4..S6 are scheduled, at the resume deadlines i+1..i+3.
  ASSERT_EQ(r.plan.reception_slot.size(), 3u);
  EXPECT_EQ(r.new_instances, 3);
  EXPECT_EQ(r.plan.reception_slot[0], 2);  // S4 watched during slot 2
  EXPECT_EQ(r.plan.reception_slot[1], 3);
  EXPECT_EQ(r.plan.reception_slot[2], 4);
  EXPECT_FALSE(s.schedule().has_future_instance(1));
  EXPECT_TRUE(s.schedule().has_future_instance(4));
}

TEST(DhbResume, ResumePeriodsClampToSuffixDeadlines) {
  DhbScheduler s(small_config(6));
  const std::vector<int> p = s.resume_periods(4);
  EXPECT_EQ(p, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.resume_periods(1), s.periods());
}

TEST(DhbResume, ResumeRidesAnEarlierRequestsTail) {
  DhbScheduler s(small_config(6));
  s.advance_slot_view();
  s.on_request();  // schedules S_j at slot 1 + j
  s.advance_slot_view();
  s.advance_slot_view();  // now slot 3
  // A client resuming at S3 during slot 3 wants S3 by slot 4, S4 by 5, ...
  // — exactly where the first request's instances sit: full sharing.
  const DhbRequestResult r = s.on_range(3, 6);
  EXPECT_EQ(r.new_instances, 0);
  EXPECT_EQ(r.shared_instances, 4);
  EXPECT_TRUE(verify_plan(r.plan, s.resume_periods(3)).deadlines_met);
}

TEST(DhbResume, PartialSharingWhenOffsetMisaligns) {
  DhbScheduler s(small_config(6));
  s.advance_slot_view();
  s.on_request();  // S_j at slot 1 + j
  for (int k = 0; k < 3; ++k) s.advance_slot_view();  // now slot 4
  // Resuming at S3 during slot 4: S3's window (4,5] misses the instance at
  // slot 4 (already under way), so a fresh S3 is scheduled; S4..S6 at
  // slots 5..7 are shared.
  const DhbRequestResult r = s.on_range(3, 6);
  EXPECT_EQ(r.new_instances, 1);
  EXPECT_EQ(r.shared_instances, 3);
  EXPECT_TRUE(verify_plan(r.plan, s.resume_periods(3)).deadlines_met);
}

TEST(DhbResume, SameSlotResumersShareSuffix) {
  DhbScheduler s(small_config(10));
  s.advance_slot_view();
  s.on_range(5, 10);
  const DhbRequestResult r = s.on_range(5, 10);
  EXPECT_EQ(r.new_instances, 0);
  EXPECT_EQ(r.shared_instances, 6);
}

TEST(DhbResume, PropertyDeadlinesAlwaysMet) {
  DhbConfig c = small_config(20);
  DhbScheduler s(c);
  Rng rng(99);
  for (int step = 0; step < 300; ++step) {
    s.advance_slot_view();
    if (rng.uniform() < 0.6) s.on_request();
    if (rng.uniform() < 0.4) {
      const Segment f =
          1 + static_cast<Segment>(rng.uniform_index(20));
      const DhbRequestResult r = s.on_range(f, 20);
      const PlanDiagnostics d = verify_plan(r.plan, s.resume_periods(f));
      ASSERT_TRUE(d.deadlines_met)
          << "resume at S" << f << ", slot " << s.current_slot();
      // Note: resumes use tighter windows than full requests, so the
      // <=1-future-instance invariant no longer holds (a resume may
      // legitimately duplicate an instance it cannot wait for); a small
      // bound still does.
      for (Segment j = 1; j <= 20; ++j) {
        ASSERT_LE(s.schedule().instances_of(j).size(), 4u);
      }
    }
  }
}

TEST(DhbResume, CappedResumeRespectsCap) {
  DhbConfig c = small_config(12);
  c.client_stream_cap = 2;
  DhbScheduler s(c);
  Rng rng(5);
  for (int step = 0; step < 200; ++step) {
    s.advance_slot_view();
    const Segment f = 1 + static_cast<Segment>(rng.uniform_index(12));
    const DhbRequestResult r = s.on_range(f, 12);
    const PlanDiagnostics d = verify_plan(r.plan, s.resume_periods(f));
    ASSERT_TRUE(d.deadlines_met);
    if (r.cap_violations == 0) {
      ASSERT_LE(d.max_concurrent_streams, 2);
    }
  }
}

TEST(DhbResume, ResumeAtLastSegment) {
  DhbScheduler s(small_config(7));
  s.advance_slot_view();
  const DhbRequestResult r = s.on_range(7, 7);
  ASSERT_EQ(r.plan.reception_slot.size(), 1u);
  EXPECT_EQ(r.plan.reception_slot[0], 2);  // next slot, period 1
}

TEST(DhbRange, OnRangeGeneralizesBothEntryPoints) {
  // on_range(1, n) is on_request(), same-slot memo included; on_range(f, n)
  // is a resume and runs under resume_periods(f).
  DhbScheduler a(small_config(8));
  DhbScheduler b(small_config(8));
  a.advance_slot_view();
  b.advance_slot_view();
  for (int k = 0; k < 2; ++k) {
    EXPECT_EQ(a.on_request().plan.reception_slot,
              b.on_range(1, 8).plan.reception_slot);
  }
  EXPECT_EQ(b.total_coalesced_requests(), 1u);
  EXPECT_EQ(a.total_work_units(), b.total_work_units());
  EXPECT_TRUE(
      verify_plan(b.on_range(3, 8).plan, b.resume_periods(3)).deadlines_met);
}

TEST(DhbRange, PrefixSchedulesOnlyDeclaredLength) {
  DhbScheduler s(small_config(10));
  s.advance_slot_view();
  const DhbRequestResult r = s.on_range(1, 4);
  ASSERT_EQ(r.plan.reception_slot.size(), 4u);
  EXPECT_EQ(r.new_instances, 4);
  EXPECT_TRUE(s.schedule().has_future_instance(4));
  EXPECT_FALSE(s.schedule().has_future_instance(5));
  EXPECT_TRUE(verify_plan(r.plan).deadlines_met);
}

TEST(DhbRange, MiddleRangeSharesWithFullRequest) {
  DhbScheduler s(small_config(10));
  s.advance_slot_view();
  s.on_request();  // S_j at slot 1 + j
  s.advance_slot_view();
  s.advance_slot_view();  // slot 3
  // Watching S3..S5 during slots 4..6 rides the first request exactly.
  const DhbRequestResult r = s.on_range(3, 5);
  EXPECT_EQ(r.new_instances, 0);
  EXPECT_EQ(r.shared_instances, 3);
}

TEST(DhbRange, SingleSegmentRange) {
  DhbScheduler s(small_config(6));
  s.advance_slot_view();
  const DhbRequestResult r = s.on_range(4, 4);
  ASSERT_EQ(r.plan.reception_slot.size(), 1u);
  EXPECT_EQ(r.plan.reception_slot[0], 2);  // next slot (resume window 1)
}

TEST(DhbRangeDeath, RejectsInvertedRange) {
  DhbScheduler s(small_config(6));
  s.advance_slot_view();
  EXPECT_DEATH(s.on_range(4, 3), "");
  EXPECT_DEATH(s.on_range(1, 7), "");
}

TEST(DhbResumeDeath, RejectsOutOfRange) {
  DhbScheduler s(small_config(5));
  s.advance_slot_view();
  EXPECT_DEATH(s.on_range(0, 5), "");
  EXPECT_DEATH(s.on_range(6, 5), "");
}

}  // namespace
}  // namespace vod
