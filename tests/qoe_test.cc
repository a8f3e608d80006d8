// Client-perceived QoE accounting (obs/qoe.h) and SLO burn-rate tracking
// (obs/slo.h): exemplar histograms keep the worst sample per bucket under
// a fixed tie-break rule, SloTracker closes burn-rate windows in slot time
// with deterministic breach/alert counts, and a QoeShard is one stream —
// no group until the first record, then every record in the one group.
#include "obs/qoe.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/slo.h"

namespace vod {
namespace {

using obs::ExemplarHistogram;
using obs::QoeGroup;
using obs::QoeSample;
using obs::QoeShard;
using obs::SloTracker;

TEST(ExemplarHistogram, KeepsWorstSamplePerBucket) {
  ExemplarHistogram h(0.0, 8.0, 4);  // bins of width 2
  h.observe(0.5, /*request_id=*/7, /*slot=*/10);
  h.observe(1.5, 8, 11);  // same bucket, larger value: replaces
  h.observe(1.5, 6, 9);   // tie on value: smaller slot wins
  h.observe(1.5, 9, 9);   // tie on (value, slot): smaller request id stays
  h.observe(5.0, 1, 3);   // bucket 2
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.5 + 1.5 + 1.5 + 5.0);
  EXPECT_DOUBLE_EQ(h.exemplars()[0].value, 1.5);
  EXPECT_EQ(h.exemplars()[0].slot, 9);
  EXPECT_EQ(h.exemplars()[0].request_id, 6u);
  EXPECT_EQ(h.exemplars()[2].request_id, 1u);
  // Out-of-range samples clamp into the last bucket, like Histogram.
  h.observe(99.0, 2, 4);
  EXPECT_DOUBLE_EQ(h.exemplars()[3].value, 99.0);
}

TEST(SloTracker, LifetimeVerdictAndWindowBurns) {
  // Budget 10%; fast windows of 64 slots, slow of 512, alert at burn 1.
  SloTracker t(0.1);
  t.record(0, 10, 0);
  t.record(32, 10, 2);
  // Crossing slot 64 closes fast window 0: burn (2/20)/0.1 = 1.0, breached;
  // the slow window still holds those samples, so its running burn is also
  // 1.0 — a fast breach while the slow window is hot pages (1 alert).
  t.record(64, 10, 4);
  EXPECT_EQ(t.fast().windows, 1u);
  EXPECT_EQ(t.fast().breached, 1u);
  EXPECT_DOUBLE_EQ(t.fast().max_burn, 1.0);
  EXPECT_EQ(t.alerts(), 1u);
  // Crossing slot 512 closes slow window 0 (30 samples, 6 bad, burn 2.0)
  // and fast window 1 (10 samples, 4 bad, burn 4.0), and accounts fast
  // windows 2..7 as clean; the slow window is empty at the fast close, so
  // no second alert.
  t.record(512, 10, 0);
  EXPECT_EQ(t.slow().windows, 1u);
  EXPECT_EQ(t.slow().breached, 1u);
  EXPECT_DOUBLE_EQ(t.slow().max_burn, 2.0);
  EXPECT_EQ(t.fast().windows, 8u);
  EXPECT_EQ(t.fast().breached, 2u);
  EXPECT_DOUBLE_EQ(t.fast().max_burn, 4.0);
  EXPECT_EQ(t.alerts(), 1u);
  // Lifetime verdict: 6 bad of 40 = 15% against a 10% budget.
  EXPECT_EQ(t.total(), 40u);
  EXPECT_EQ(t.bad(), 6u);
  EXPECT_DOUBLE_EQ(t.bad_fraction(), 0.15);
  EXPECT_FALSE(t.met());
}

TEST(SloTracker, SkippedEmptyWindowsCountAsClean) {
  SloTracker t(0.1);
  t.record(0, 4, 0);
  // Jumping to fast-window index 3 closes window 0 and accounts the two
  // sample-free windows in between as clean closes.
  t.record(3 * SloTracker::kFastWindowSlots, 4, 4);
  EXPECT_EQ(t.fast().windows, 3u);
  EXPECT_EQ(t.fast().breached, 0u);
  EXPECT_EQ(t.alerts(), 0u);
  // The next window's first sample closes the hot one. The slow window
  // (one window of 512 slots so far) still holds 4 bad of 8, burn 5, so
  // the hot fast close pages.
  t.record(4 * SloTracker::kFastWindowSlots, 4, 0);
  EXPECT_EQ(t.fast().windows, 4u);
  EXPECT_EQ(t.fast().breached, 1u);
  EXPECT_DOUBLE_EQ(t.fast().max_burn, 10.0);
  EXPECT_EQ(t.slow().windows, 0u);
  EXPECT_EQ(t.alerts(), 1u);
}

TEST(SloTracker, RestartedClockClosesTheOpenWindow) {
  // Two runs of a sweep, each restarting the slot clock at 0. Each run
  // starts clean and ends with one hot sample (4 bad of 4) in fast window
  // 10, which lies in slow window 1.
  constexpr int64_t kHotSlot =
      SloTracker::kSlowWindowSlots + 2 * SloTracker::kFastWindowSlots;
  SloTracker t(0.1);
  t.record(0, 4, 0);
  t.record(kHotSlot, 4, 4);  // closes the clean windows 0 and skips 1..9
  EXPECT_EQ(t.fast().windows, 10u);
  EXPECT_EQ(t.slow().windows, 1u);
  // Run 2's first sample closes run 1's hot windows as breached and opens
  // window 0 afresh; a backward jump credits no skipped windows.
  t.record(0, 4, 0);
  EXPECT_EQ(t.fast().windows, 11u);
  EXPECT_EQ(t.fast().breached, 1u);
  EXPECT_EQ(t.slow().windows, 2u);
  EXPECT_EQ(t.slow().breached, 1u);
  t.record(kHotSlot, 4, 4);
  // A third run's first sample closes run 2's hot windows: both runs'
  // hot windows count.
  t.record(0, 4, 0);
  EXPECT_EQ(t.fast().windows, 22u);
  EXPECT_EQ(t.fast().breached, 2u);
  EXPECT_DOUBLE_EQ(t.fast().max_burn, 10.0);
  EXPECT_EQ(t.slow().windows, 4u);
  EXPECT_EQ(t.slow().breached, 2u);
  EXPECT_EQ(t.total(), 20u);
  EXPECT_EQ(t.bad(), 8u);
}

TEST(QoeShard, RecordsAdmissionsIntoContextGroup) {
  QoeShard q;
  EXPECT_TRUE(q.groups().empty());
  q.record_admission(/*count=*/0, 5, 1.0, 0, 5);  // nothing admitted
  EXPECT_TRUE(q.groups().empty());
  q.record_admission(/*count=*/2, /*arrival_slot=*/10, /*wait_slots=*/1.0,
                     /*late_segments_per_request=*/0,
                     /*segments_per_request=*/5);
  // Wait-bad: 12 slots exceed the 8-slot objective.
  q.record_admission(1, 12, 12.0, 2, 5);
  ASSERT_EQ(q.groups().size(), 1u);
  const QoeGroup& g = q.groups().front();
  EXPECT_EQ(g.admissions, 2u);
  EXPECT_EQ(g.requests, 3u);
  EXPECT_EQ(g.segments, 15u);
  EXPECT_EQ(g.late_segments, 2u);
  EXPECT_DOUBLE_EQ(g.continuity(), 1.0 - 2.0 / 15.0);
  EXPECT_EQ(g.wait_slo.total(), 3u);
  EXPECT_EQ(g.wait_slo.bad(), 1u);
  EXPECT_DOUBLE_EQ(g.wait_slo.error_budget(), obs::kWaitErrorBudget);
  EXPECT_EQ(g.continuity_slo.total(), 15u);
  EXPECT_EQ(g.continuity_slo.bad(), 2u);
  EXPECT_DOUBLE_EQ(g.continuity_slo.error_budget(),
                   obs::kContinuityErrorBudget);
  EXPECT_EQ(q.total_requests(), 3u);
  // Request ids are the shard's admission sequence: the first batch takes
  // ids 0 and 1, the second id 2.
  const std::vector<QoeSample> samples = q.recent_samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].request_id, 0u);
  EXPECT_EQ(samples[1].request_id, 2u);
  EXPECT_EQ(samples[0].slot, 10);
  EXPECT_EQ(samples[1].wait_slots, 12.0);
  EXPECT_EQ(samples[1].segments, 5u);
}

TEST(QoeShard, SampleRingKeepsLastN) {
  QoeShard q(/*sample_capacity=*/4);
  for (int64_t s = 0; s < 7; ++s) q.record_admission(1, s, 0.0, 0, 1);
  const std::vector<QoeSample> samples = q.recent_samples();
  ASSERT_EQ(samples.size(), 4u);
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].slot, static_cast<int64_t>(3 + i));  // oldest first
  }
}

}  // namespace
}  // namespace vod
