#include "core/dhb.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "obs/metrics.h"

namespace vod {
namespace {

DhbConfig small_config(int n) {
  DhbConfig c;
  c.num_segments = n;
  return c;
}

// The paper's Figure 4: a request arriving during slot 1 into an idle
// system gets one transmission of S_i scheduled during slot i + 1.
TEST(Dhb, Figure4IdleSystemSchedule) {
  DhbScheduler s(small_config(6));
  s.advance_slot_view();  // now = slot 1
  const DhbRequestResult r = s.on_request();
  EXPECT_EQ(r.new_instances, 6);
  EXPECT_EQ(r.shared_instances, 0);
  for (Segment j = 1; j <= 6; ++j) {
    EXPECT_EQ(r.plan.reception_slot[static_cast<size_t>(j - 1)], 1 + j)
        << "S" << j;
  }
}

// Figure 5: a second request during slot 3 shares S3..S6 with the first and
// schedules fresh S1 during slot 4 and S2 during slot 5.
TEST(Dhb, Figure5OverlappingRequests) {
  DhbScheduler s(small_config(6));
  s.advance_slot_view();  // slot 1
  s.on_request();
  s.advance_slot_view();  // slot 2
  s.advance_slot_view();  // slot 3
  const DhbRequestResult r = s.on_request();
  EXPECT_EQ(r.new_instances, 2);
  EXPECT_EQ(r.shared_instances, 4);
  EXPECT_EQ(r.plan.reception_slot[0], 4);  // fresh S1
  EXPECT_EQ(r.plan.reception_slot[1], 5);  // fresh S2
  EXPECT_EQ(r.plan.reception_slot[2], 4);  // shared S3 (first request's)
  EXPECT_EQ(r.plan.reception_slot[3], 5);
  EXPECT_EQ(r.plan.reception_slot[4], 6);
  EXPECT_EQ(r.plan.reception_slot[5], 7);
}

TEST(Dhb, TransmissionsMatchPlans) {
  DhbScheduler s(small_config(6));
  s.advance_slot_view();
  s.on_request();
  // Slots 2..7 each transmit exactly one segment: S1..S6 in order.
  for (Segment j = 1; j <= 6; ++j) {
    const std::span<const Segment> tx = s.advance_slot_view();
    ASSERT_EQ(tx.size(), 1u) << "slot " << s.current_slot();
    EXPECT_EQ(tx[0], j);
  }
  EXPECT_TRUE(s.advance_slot_view().empty());
}

TEST(Dhb, RequestInSameSlotSharesEverything) {
  DhbScheduler s(small_config(10));
  s.advance_slot_view();
  s.on_request();
  const DhbRequestResult r = s.on_request();
  EXPECT_EQ(r.new_instances, 0);
  EXPECT_EQ(r.shared_instances, 10);
}

// "The protocol will never schedule more than one instance of segment S_i
// once every i slots" (§3).
TEST(Dhb, AtMostOneFutureInstancePerSegment) {
  DhbScheduler s(small_config(8));
  for (int step = 0; step < 200; ++step) {
    s.advance_slot_view();
    s.on_request();
    if (step % 3 == 0) s.on_request();
    for (Segment j = 1; j <= 8; ++j) {
      EXPECT_LE(s.schedule().instances_of(j).size(), 1u)
          << "segment " << j << " at slot " << s.current_slot();
    }
  }
}

TEST(Dhb, SaturationTransmitsS1EverySlot) {
  DhbScheduler s(small_config(6));
  for (int step = 0; step < 50; ++step) {
    s.advance_slot_view();
    s.on_request();
    if (step >= 2) {
      // With a request in every slot, S1 must be in every slot's schedule.
      EXPECT_TRUE(s.schedule().has_future_instance(1));
    }
  }
}

TEST(Dhb, DefaultPeriodsAreIdentity) {
  DhbScheduler s(small_config(5));
  EXPECT_EQ(s.periods(), (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Dhb, CustomPeriodsRestrictWindow) {
  DhbConfig c = small_config(4);
  c.periods = {1, 2, 2, 3};  // S3 must come within 2 slots, S4 within 3
  DhbScheduler s(c);
  s.advance_slot_view();
  const DhbRequestResult r = s.on_request();
  EXPECT_LE(r.plan.reception_slot[2], s.current_slot() + 2);
  EXPECT_LE(r.plan.reception_slot[3], s.current_slot() + 3);
  const PlanDiagnostics d = verify_plan(r.plan, c.periods);
  EXPECT_TRUE(d.deadlines_met);
}

TEST(Dhb, WorkAheadPeriodsAllowDelays) {
  DhbConfig c = small_config(4);
  c.periods = {1, 3, 5, 8};  // VBR-style slack beyond the CBR window
  DhbScheduler s(c);
  s.advance_slot_view();
  const DhbRequestResult r = s.on_request();
  EXPECT_EQ(r.plan.reception_slot[0], 2);
  EXPECT_EQ(r.plan.reception_slot[1], 4);   // latest slot in (1, 1+3]
  EXPECT_EQ(r.plan.reception_slot[2], 6);
  EXPECT_EQ(r.plan.reception_slot[3], 9);
}

TEST(Dhb, LatestHeuristicAlwaysPicksWindowEnd) {
  DhbConfig c = small_config(5);
  c.heuristic = SlotHeuristic::kLatest;
  DhbScheduler s(c);
  s.advance_slot_view();
  const DhbRequestResult r = s.on_request();
  for (Segment j = 1; j <= 5; ++j) {
    EXPECT_EQ(r.plan.reception_slot[static_cast<size_t>(j - 1)], 1 + j);
  }
}

TEST(Dhb, EarliestHeuristicFrontloadsEverything) {
  DhbConfig c = small_config(5);
  c.heuristic = SlotHeuristic::kEarliest;
  DhbScheduler s(c);
  s.advance_slot_view();
  const DhbRequestResult r = s.on_request();
  for (Segment j = 1; j <= 5; ++j) {
    EXPECT_EQ(r.plan.reception_slot[static_cast<size_t>(j - 1)], 2);
  }
}

TEST(Dhb, MinLoadSpreadsIdleSchedule) {
  // With min-load-latest on an idle system, S_j goes to slot 1 + j: every
  // earlier window slot would carry load from lower segments.
  DhbScheduler s(small_config(12));
  s.advance_slot_view();
  const DhbRequestResult r = s.on_request();
  const PlanDiagnostics d = verify_plan(r.plan);
  EXPECT_EQ(d.max_concurrent_streams, 1);  // perfectly spread
}

TEST(Dhb, CountersAccumulate) {
  DhbScheduler s(small_config(4));
  s.advance_slot_view();
  s.on_request();
  s.on_request();
  EXPECT_EQ(s.total_requests(), 2u);
  EXPECT_EQ(s.total_new_instances(), 4u);
  EXPECT_EQ(s.total_shared(), 4u);
  EXPECT_GT(s.total_slot_probes(), 0u);
}

TEST(Dhb, ClientCapLimitsConcurrency) {
  DhbConfig c = small_config(8);
  c.client_stream_cap = 1;
  DhbScheduler s(c);
  s.advance_slot_view();
  const DhbRequestResult r = s.on_request();
  const PlanDiagnostics d = verify_plan(r.plan);
  EXPECT_TRUE(d.deadlines_met);
  EXPECT_LE(d.max_concurrent_streams, 1);
  EXPECT_EQ(r.cap_violations, 0);
}

TEST(Dhb, ClientCapTwoHandlesBurst) {
  DhbConfig c = small_config(16);
  c.client_stream_cap = 2;
  DhbScheduler s(c);
  for (int step = 0; step < 60; ++step) {
    s.advance_slot_view();
    const DhbRequestResult r = s.on_request();
    const PlanDiagnostics d = verify_plan(r.plan);
    EXPECT_TRUE(d.deadlines_met);
    if (r.cap_violations == 0) {
      EXPECT_LE(d.max_concurrent_streams, 2);
    }
  }
}

TEST(Dhb, CapViolationsReportedWhenImpossible) {
  // Four receptions confined to two window slots cannot respect cap 1: the
  // scheduler must fall back, report the violation, and still produce a
  // deadline-correct plan.
  DhbConfig c = small_config(4);
  c.periods = {1, 2, 2, 2};
  c.client_stream_cap = 1;
  DhbScheduler s(c);
  s.advance_slot_view();
  const DhbRequestResult r = s.on_request();
  EXPECT_GT(r.cap_violations, 0);
  EXPECT_TRUE(verify_plan(r.plan, c.periods).deadlines_met);
  // The exported counter carries the same count.
  obs::MetricShard m;
  s.export_metrics(&m);
  EXPECT_EQ(m.counter_value("dhb_cap_violation_slots_total"),
            static_cast<uint64_t>(r.cap_violations));
}

TEST(Dhb, CapUnconstrainedWithIdentityPeriods) {
  // With T[j] = j, S_j always has a free window slot even at cap 1 (the
  // window grows one slot per segment), so no violations ever occur.
  DhbConfig c = small_config(12);
  c.client_stream_cap = 1;
  DhbScheduler s(c);
  for (int step = 0; step < 40; ++step) {
    s.advance_slot_view();
    const DhbRequestResult r = s.on_request();
    EXPECT_EQ(r.cap_violations, 0);
    EXPECT_TRUE(verify_plan(r.plan).deadlines_met);
  }
}

TEST(DhbDeath, RejectsBadPeriods) {
  DhbConfig c = small_config(3);
  c.periods = {2, 2, 3};  // T[1] != 1
  EXPECT_DEATH(DhbScheduler{c}, "T\\[1\\]");
  c.periods = {1, 2};  // wrong length
  EXPECT_DEATH(DhbScheduler{c}, "one entry per segment");
}

}  // namespace
}  // namespace vod
