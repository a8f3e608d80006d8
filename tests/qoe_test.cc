// Client-perceived QoE accounting (obs/qoe.h) and SLO burn-rate tracking
// (obs/slo.h): exemplar histograms keep the worst sample per bucket under
// a merge-order-independent rule, SloTracker closes burn-rate windows in
// slot time with deterministic breach/alert counts, and QoeShard merges
// are bit-identical regardless of shard order — the property the sharded
// engine's any-thread-count guarantee rests on.
#include "obs/qoe.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/slo.h"

namespace vod {
namespace {

using obs::ExemplarHistogram;
using obs::QoeExemplar;
using obs::QoeGroup;
using obs::QoeKey;
using obs::QoeOptions;
using obs::QoeRungSummary;
using obs::QoeSample;
using obs::QoeShard;
using obs::SloConfig;
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

void expect_same_exemplar_histogram(const ExemplarHistogram& a,
                                    const ExemplarHistogram& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_DOUBLE_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.histogram().bins(), b.histogram().bins());
  ASSERT_EQ(a.exemplars().size(), b.exemplars().size());
  for (size_t i = 0; i < a.exemplars().size(); ++i) {
    if (a.histogram().bins()[i] == 0) continue;  // meaningless entries
    EXPECT_EQ(a.exemplars()[i].request_id, b.exemplars()[i].request_id) << i;
    EXPECT_EQ(a.exemplars()[i].slot, b.exemplars()[i].slot) << i;
    EXPECT_DOUBLE_EQ(a.exemplars()[i].value, b.exemplars()[i].value) << i;
  }
}

TEST(ExemplarHistogram, MergeIsOrderIndependent) {
  // Three writers with overlapping buckets and cross-writer exemplar ties;
  // every merge order must produce identical bins and exemplars.
  auto build = [](int which) {
    ExemplarHistogram h(0.0, 8.0, 4);
    if (which == 0) {
      h.observe(1.0, 10, 5);
      h.observe(3.0, 11, 6);
    } else if (which == 1) {
      h.observe(1.0, 12, 4);  // ties writer 0's bucket-0 value, earlier slot
      h.observe(7.0, 13, 7);
    } else {
      h.observe(3.5, 14, 2);  // beats writer 0's bucket-1 exemplar
      h.observe(7.0, 9, 7);   // ties writer 1's bucket-3 pair on (value,
                              // slot); smaller request id must win
    }
    return h;
  };
  const std::vector<std::vector<int>> orders = {
      {0, 1, 2}, {2, 1, 0}, {1, 2, 0}, {2, 0, 1}};
  std::vector<ExemplarHistogram> merged;
  for (const auto& order : orders) {
    ExemplarHistogram acc(0.0, 8.0, 4);
    for (int which : order) acc.merge(build(which));
    merged.push_back(acc);
  }
  for (size_t i = 1; i < merged.size(); ++i) {
    expect_same_exemplar_histogram(merged[0], merged[i]);
  }
  EXPECT_EQ(merged[0].count(), 6u);
  EXPECT_EQ(merged[0].exemplars()[0].request_id, 12u);  // earlier slot
  EXPECT_EQ(merged[0].exemplars()[1].request_id, 14u);  // larger value
  EXPECT_EQ(merged[0].exemplars()[3].request_id, 9u);   // smaller id on tie
}

TEST(SloTracker, LifetimeVerdictAndWindowBurns) {
  // Budget 10%, fast window 4 slots, slow window 8 slots, alert at burn 1.
  SloTracker t(SloConfig{0.1, 4, 8, 1.0});
  t.record(0, 10, 0);
  t.record(2, 10, 2);
  // Crossing slot 4 closes fast window 0: burn (2/20)/0.1 = 1.0, breached;
  // the slow window still holds those samples, so its running burn is also
  // 1.0 — a fast breach while the slow window is hot pages (1 alert).
  t.record(4, 10, 4);
  EXPECT_EQ(t.fast().windows, 1u);
  EXPECT_EQ(t.fast().breached, 1u);
  EXPECT_DOUBLE_EQ(t.fast().max_burn, 1.0);
  EXPECT_EQ(t.alerts(), 1u);
  // Crossing slot 8 closes slow window 0 (30 samples, 6 bad, burn 2.0) and
  // fast window 1 (10 samples, 4 bad, burn 4.0); the slow window is empty
  // at the fast close, so no second alert.
  t.record(8, 10, 0);
  EXPECT_EQ(t.slow().windows, 1u);
  EXPECT_EQ(t.slow().breached, 1u);
  EXPECT_DOUBLE_EQ(t.slow().max_burn, 2.0);
  EXPECT_EQ(t.fast().windows, 2u);
  EXPECT_EQ(t.fast().breached, 2u);
  EXPECT_DOUBLE_EQ(t.fast().max_burn, 4.0);
  EXPECT_EQ(t.alerts(), 1u);
  // Lifetime verdict: 6 bad of 40 = 15% against a 10% budget.
  EXPECT_EQ(t.total(), 40u);
  EXPECT_EQ(t.bad(), 6u);
  EXPECT_DOUBLE_EQ(t.bad_fraction(), 0.15);
  EXPECT_FALSE(t.met());
  EXPECT_DOUBLE_EQ(t.open_fast_burn(), 0.0);
}

TEST(SloTracker, SkippedEmptyWindowsCountAsClean) {
  SloTracker t(SloConfig{0.1, 4, 8, 1.0});
  t.record(0, 4, 0);
  // Jumping to fast-window index 3 closes window 0 and accounts the two
  // sample-free windows in between as clean closes.
  t.record(12, 4, 4);
  EXPECT_EQ(t.fast().windows, 3u);
  EXPECT_EQ(t.fast().breached, 0u);
  // advance_to flushes windows the stream moved past without a sample.
  t.advance_to(16);
  EXPECT_EQ(t.fast().windows, 4u);
  EXPECT_EQ(t.fast().breached, 1u);  // the 4-bad window closed hot
  EXPECT_DOUBLE_EQ(t.open_fast_burn(), 0.0);
}

TEST(SloTracker, MergeFoldsOpenWindowsAndCommutes) {
  const SloConfig cfg{0.1, 4, 8, 1.0};
  auto build = [&cfg](bool hot) {
    SloTracker t(cfg);
    if (hot) {
      t.record(0, 10, 5);  // stays open: folded as one closed hot window
    } else {
      t.record(0, 10, 0);
      t.record(4, 10, 0);  // closes fast window 0 clean, leaves one open
    }
    return t;
  };
  for (bool a_first : {true, false}) {
    SloTracker merged(cfg);
    merged.merge_from(build(a_first));
    merged.merge_from(build(!a_first));
    EXPECT_EQ(merged.total(), 30u);
    EXPECT_EQ(merged.bad(), 5u);
    // Fast windows: the cold writer's one closed + one open, the hot
    // writer's one open — open partials fold as one closed window each.
    EXPECT_EQ(merged.fast().windows, 3u);
    EXPECT_EQ(merged.fast().breached, 1u);
    EXPECT_DOUBLE_EQ(merged.fast().max_burn, 5.0);
    EXPECT_EQ(merged.slow().windows, 2u);
    EXPECT_FALSE(merged.met());
  }
}

TEST(QoeShard, RecordsAdmissionsIntoContextGroup) {
  QoeOptions opt;
  opt.wait_objective_slots = 2.0;
  QoeShard q(opt);
  q.set_context(/*video=*/3, /*rung=*/1);
  q.record_admission(/*count=*/2, /*arrival_slot=*/10, /*wait_slots=*/1.0,
                     /*late_segments_per_request=*/0,
                     /*segments_per_request=*/5);
  q.record_admission(1, 12, 4.0, 2, 5);  // wait-bad (4 > objective 2)
  ASSERT_EQ(q.groups().size(), 1u);
  const QoeGroup& g = q.groups().at(QoeKey{3, 1});
  EXPECT_EQ(g.admissions, 2u);
  EXPECT_EQ(g.requests, 3u);
  EXPECT_EQ(g.segments, 15u);
  EXPECT_EQ(g.late_segments, 2u);
  EXPECT_DOUBLE_EQ(g.continuity(), 1.0 - 2.0 / 15.0);
  EXPECT_EQ(g.wait_slo.total(), 3u);
  EXPECT_EQ(g.wait_slo.bad(), 1u);
  EXPECT_EQ(g.continuity_slo.total(), 15u);
  EXPECT_EQ(g.continuity_slo.bad(), 2u);
  EXPECT_EQ(q.total_requests(), 3u);
  // Request ids are (video << 32) | per-group sequence.
  const std::vector<QoeSample> samples = q.recent_samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].request_id, (uint64_t{3} << 32) | 0u);
  EXPECT_EQ(samples[1].request_id, (uint64_t{3} << 32) | 2u);
  EXPECT_EQ(samples[0].slot, 10);
  EXPECT_EQ(samples[1].wait_slots, 4.0);
  EXPECT_EQ(samples[1].segments, 5u);
}

TEST(QoeShard, SampleRingKeepsLastN) {
  QoeOptions opt;
  opt.sample_ring_capacity = 4;
  QoeShard q(opt);
  q.set_context(1, 0);
  for (int64_t s = 0; s < 7; ++s) q.record_admission(1, s, 0.0, 0, 1);
  const std::vector<QoeSample> samples = q.recent_samples();
  ASSERT_EQ(samples.size(), 4u);
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].slot, static_cast<int64_t>(3 + i));  // oldest first
  }
}

// Populates one shard the way a shard kernel would: a few videos across
// rungs, staggered slots, one wait-bad batch per shard so the SLO counters
// are non-trivial.
void populate(QoeShard* q, uint32_t base_video, int64_t base_slot) {
  q->set_context(base_video, 1);
  q->record_admission(3, base_slot, 1.0, 0, 10);
  q->record_admission(1, base_slot + 70, 12.0, 1, 10);  // wait-bad, 1 late
  q->set_context(base_video + 1, 2);
  q->record_admission(2, base_slot + 3, 1.0, 0, 10);
  q->set_context(base_video, 2);  // overlaps the other shards' groups
  q->record_admission(1, base_slot + 5, 1.0, 0, 10);
}

void expect_same_groups(const QoeShard& a, const QoeShard& b) {
  ASSERT_EQ(a.groups().size(), b.groups().size());
  auto ita = a.groups().begin();
  auto itb = b.groups().begin();
  for (; ita != a.groups().end(); ++ita, ++itb) {
    ASSERT_TRUE(ita->first == itb->first);
    const QoeGroup& ga = ita->second;
    const QoeGroup& gb = itb->second;
    EXPECT_EQ(ga.admissions, gb.admissions);
    EXPECT_EQ(ga.requests, gb.requests);
    EXPECT_EQ(ga.segments, gb.segments);
    EXPECT_EQ(ga.late_segments, gb.late_segments);
    expect_same_exemplar_histogram(ga.wait, gb.wait);
    EXPECT_EQ(ga.wait_slo.total(), gb.wait_slo.total());
    EXPECT_EQ(ga.wait_slo.bad(), gb.wait_slo.bad());
    EXPECT_EQ(ga.wait_slo.fast().windows, gb.wait_slo.fast().windows);
    EXPECT_EQ(ga.wait_slo.fast().breached, gb.wait_slo.fast().breached);
    EXPECT_DOUBLE_EQ(ga.wait_slo.fast().max_burn,
                     gb.wait_slo.fast().max_burn);
    EXPECT_EQ(ga.continuity_slo.total(), gb.continuity_slo.total());
    EXPECT_EQ(ga.continuity_slo.bad(), gb.continuity_slo.bad());
  }
  EXPECT_EQ(a.total_requests(), b.total_requests());
}

TEST(QoeShard, MergeIsDeterministicAcrossShardOrders) {
  // Three shards with overlapping (video, rung) groups, merged in four
  // different orders: bins, exemplars, counters, and SLO window stats must
  // all come out identical.
  const std::vector<std::vector<int>> orders = {
      {0, 1, 2}, {2, 1, 0}, {1, 2, 0}, {2, 0, 1}};
  std::vector<std::unique_ptr<QoeShard>> merged;
  for (const auto& order : orders) {
    QoeShard s0, s1, s2;
    populate(&s0, 0, 0);
    populate(&s1, 1, 40);   // video 1 collides with s0's rung-2 group
    populate(&s2, 0, 200);  // same keys as s0, later slots
    const QoeShard* shards[3] = {&s0, &s1, &s2};
    auto acc = std::make_unique<QoeShard>();
    for (int which : order) acc->merge_from(*shards[which]);
    merged.push_back(std::move(acc));
  }
  for (size_t i = 1; i < merged.size(); ++i) {
    expect_same_groups(*merged[0], *merged[i]);
  }
  EXPECT_EQ(merged[0]->groups().size(), 5u);
  EXPECT_EQ(merged[0]->total_requests(), 21u);
}

TEST(QoeShard, SummarizeRungsFoldsVideosAndScoresSlos) {
  QoeOptions opt;
  opt.wait_objective_slots = 8.0;
  QoeShard q(opt);
  q.set_context(0, 1);
  q.record_admission(99, 0, 1.0, 0, 10);
  q.record_admission(1, 5, 20.0, 0, 10);  // exactly the 1% budget
  q.set_context(1, 1);                     // second video, same rung
  q.record_admission(100, 0, 1.0, 0, 10);
  q.set_context(2, 2);
  q.record_admission(10, 0, 20.0, 5, 10);  // all wait-bad, 50% late
  const std::vector<QoeRungSummary> rungs = obs::summarize_rungs(q);
  ASSERT_EQ(rungs.size(), 2u);
  EXPECT_EQ(rungs[0].rung, 1);
  EXPECT_EQ(rungs[0].requests, 200u);
  // 1 wait-bad of 200 requests is within the 1% budget — and with a 1%
  // budget the lifetime verdict is exactly the p99 claim, so the p99 sits
  // in the fast bin despite the 20-slot straggler.
  EXPECT_TRUE(rungs[0].wait_slo_met);
  EXPECT_TRUE(rungs[0].continuity_slo_met);
  EXPECT_DOUBLE_EQ(rungs[0].continuity, 1.0);
  EXPECT_DOUBLE_EQ(rungs[0].wait_p50, 2.0);  // first 64/32-slot bin edge
  EXPECT_DOUBLE_EQ(rungs[0].wait_p99, 2.0);
  EXPECT_EQ(rungs[1].rung, 2);
  EXPECT_DOUBLE_EQ(rungs[1].wait_p99, 22.0);  // bucket 10's upper edge
  EXPECT_DOUBLE_EQ(rungs[1].continuity, 0.5);
  EXPECT_FALSE(rungs[1].continuity_slo_met);
  EXPECT_FALSE(rungs[1].wait_slo_met);
}

TEST(QoeShard, RungNamesMatchTheLadder) {
  EXPECT_STREQ(obs::qoe_rung_name(0), "reactive");
  EXPECT_STREQ(obs::qoe_rung_name(1), "dhb");
  EXPECT_STREQ(obs::qoe_rung_name(2), "static");
  EXPECT_EQ(obs::qoe_rung_name(7), nullptr);
  EXPECT_EQ(obs::qoe_rung_label(7), "rung7");
}

}  // namespace
}  // namespace vod
