// Same-slot request coalescing (DhbConfig::coalesce_same_slot) and the
// batch entry points: k same-slot requests must be bit-identical to k
// sequential admissions — plans and lifetime counters — and the memo must
// go stale on every event that can change a same-slot plan. No entry point
// records QoE for an uncapped admission; a capped one records its
// cap violations as late segments.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/dhb.h"
#include "obs/qoe.h"
#include "obs/trace.h"

namespace vod {
namespace {

DhbConfig coalescing_config(bool on) {
  DhbConfig config;
  config.num_segments = 10;
  config.coalesce_same_slot = on;
  return config;
}

void expect_same_result(const DhbRequestResult& a, const DhbRequestResult& b) {
  EXPECT_EQ(a.plan.arrival_slot, b.plan.arrival_slot);
  EXPECT_EQ(a.plan.reception_slot, b.plan.reception_slot);
  EXPECT_EQ(a.new_instances, b.new_instances);
  EXPECT_EQ(a.shared_instances, b.shared_instances);
  EXPECT_EQ(a.cap_violations, b.cap_violations);
}

void expect_same_counters(const DhbScheduler& a, const DhbScheduler& b) {
  EXPECT_EQ(a.total_requests(), b.total_requests());
  EXPECT_EQ(a.total_new_instances(), b.total_new_instances());
  EXPECT_EQ(a.total_shared(), b.total_shared());
  EXPECT_EQ(a.total_slot_probes(), b.total_slot_probes());
  EXPECT_EQ(a.total_rejected_admissions(), b.total_rejected_admissions());
}

// Advances both schedulers; true when they transmit the same segments in
// the same order.
bool same_advance(DhbScheduler& a, DhbScheduler& b) {
  return std::ranges::equal(a.advance_slot_view(), b.advance_slot_view());
}

// Runs `admit` with `qoe` as the thread's ambient QoE shard.
template <typename Admit>
void recording_qoe(obs::QoeShard* qoe, Admit admit) {
  obs::ObsSink sink{nullptr, nullptr, qoe, nullptr};
  obs::ScopedObsSink scoped(&sink);
  admit();
}

TEST(Coalescing, FollowersGetLeadersPlanAllShared) {
  DhbScheduler s(coalescing_config(true));
  const DhbRequestResult leader = s.on_request();
  EXPECT_EQ(leader.new_instances, 10);  // empty schedule: all fresh
  const DhbRequestResult follower = s.on_request();
  EXPECT_EQ(follower.plan.reception_slot, leader.plan.reception_slot);
  EXPECT_EQ(follower.new_instances, 0);
  EXPECT_EQ(follower.shared_instances, 10);
  EXPECT_EQ(s.total_coalesced_requests(), 1u);
}

TEST(Coalescing, KSameSlotRequestsMatchSequentialAdmits) {
  DhbScheduler with(coalescing_config(true));
  DhbScheduler without(coalescing_config(false));
  for (int slot = 0; slot < 40; ++slot) {
    const int k = (slot * 7) % 5;  // 0..4 same-slot arrivals
    for (int i = 0; i < k; ++i) {
      const DhbRequestResult a = with.on_request();
      const DhbRequestResult b = without.on_request();
      expect_same_result(a, b);
    }
    expect_same_counters(with, without);
    ASSERT_TRUE(same_advance(with, without));
  }
  EXPECT_GT(with.total_coalesced_requests(), 0u);
  EXPECT_EQ(without.total_coalesced_requests(), 0u);
}

TEST(Coalescing, BatchEqualsSequentialCountersIncluded) {
  DhbScheduler batched(coalescing_config(true));
  DhbScheduler discarded(coalescing_config(true));
  DhbScheduler sequential(coalescing_config(true));
  DhbScheduler naive(coalescing_config(false));
  obs::QoeShard batched_qoe;
  obs::QoeShard discarded_qoe;
  obs::QoeShard sequential_qoe;
  obs::QoeShard naive_qoe;
  for (int slot = 0; slot < 20; ++slot) {
    const uint64_t k = 1 + static_cast<uint64_t>(slot % 4);
    DhbRequestResult a;
    DhbRequestResult b;
    DhbRequestResult c;
    recording_qoe(&batched_qoe, [&] { a = batched.on_request_batch(k); });
    recording_qoe(&discarded_qoe,
                  [&] { discarded.on_request_batch_discard(k); });
    recording_qoe(&sequential_qoe, [&] {
      for (uint64_t i = 0; i < k; ++i) b = sequential.on_request();
    });
    recording_qoe(&naive_qoe, [&] {
      for (uint64_t i = 0; i < k; ++i) c = naive.on_request();
    });
    expect_same_result(a, b);
    expect_same_result(a, c);
    expect_same_counters(batched, discarded);
    expect_same_counters(batched, sequential);
    expect_same_counters(batched, naive);
    EXPECT_EQ(batched.total_coalesced_requests(),
              discarded.total_coalesced_requests());
    EXPECT_EQ(batched.total_coalesced_requests(),
              sequential.total_coalesced_requests());
    EXPECT_EQ(batched.total_work_units(), discarded.total_work_units());
    EXPECT_EQ(batched.total_work_units(), sequential.total_work_units());
    const std::span<const Segment> sent = batched.advance_slot_view();
    ASSERT_TRUE(std::ranges::equal(sent, discarded.advance_slot_view()));
    ASSERT_TRUE(std::ranges::equal(sent, sequential.advance_slot_view()));
    ASSERT_TRUE(std::ranges::equal(sent, naive.advance_slot_view()));
  }
  // An uncapped client starts one slot after it arrives and misses no
  // deadline, so no entry point records its QoE.
  for (const obs::QoeShard* qoe :
       {&batched_qoe, &discarded_qoe, &sequential_qoe, &naive_qoe}) {
    EXPECT_EQ(qoe->total_requests(), 0u);
    EXPECT_TRUE(qoe->groups().empty());
  }
}

TEST(Coalescing, CappedAdmissionsRecordCapViolationsAsLateSegments) {
  // Four receptions confined to two window slots cannot all respect cap 1,
  // so some placements are cap violations, which a client limited to one
  // stream cannot receive in time. Each capped admission, from every
  // entry point, records one sample whose late segments are its cap
  // violations.
  DhbConfig config = coalescing_config(true);
  config.num_segments = 4;
  config.periods = {1, 2, 2, 2};
  config.client_stream_cap = 1;
  DhbScheduler s(config);
  obs::QoeShard qoe;
  recording_qoe(&qoe, [&] {
    for (int slot = 0; slot < 12; ++slot) {
      s.advance_slot_view();
      s.on_request();
      s.on_request_batch_discard(2);
      s.on_request_batch(static_cast<uint64_t>(1 + slot % 3));
      s.on_range(2, 4);
    }
  });
  obs::MetricShard metrics;
  s.export_metrics(&metrics);
  const uint64_t exported =
      metrics.counter_value("dhb_cap_violation_slots_total");
  ASSERT_GT(exported, 0u);
#ifndef VOD_OBSERVE_DISABLED
  EXPECT_EQ(qoe.total_requests(), s.total_requests());
  uint64_t late = 0;
  uint64_t admissions = 0;
  for (const auto& [key, group] : qoe.groups()) {
    late += group.late_segments;
    admissions += group.admissions;
    EXPECT_EQ(group.wait.sum(), static_cast<double>(group.requests));
  }
  EXPECT_EQ(late, exported);
  EXPECT_EQ(admissions, s.total_requests());  // one record per request
#endif
}

TEST(Coalescing, AdvanceInvalidatesMemo) {
  DhbScheduler s(coalescing_config(true));
  s.on_request();
  s.on_request();
  EXPECT_EQ(s.total_coalesced_requests(), 1u);
  s.advance_slot_view();
  // The next request must be a genuine admission (segment 1's old instance
  // just transmitted, so it needs a fresh one), not a stale memo copy.
  const DhbRequestResult r = s.on_request();
  EXPECT_GT(r.new_instances, 0);
  EXPECT_EQ(s.total_coalesced_requests(), 1u);
}

TEST(Coalescing, ClampedAdmissionInvalidatesMemo) {
  DhbScheduler with(coalescing_config(true));
  DhbScheduler without(coalescing_config(false));
  for (int round = 0; round < 3; ++round) {
    expect_same_result(with.on_request(), without.on_request());
    // A resume may schedule an extra instance inside the full window,
    // changing what the *next* full request shares: the memo must not
    // serve the pre-resume plan.
    expect_same_result(with.on_range(5, 10), without.on_range(5, 10));
    expect_same_result(with.on_request(), without.on_request());
    expect_same_result(with.on_range(2, 7), without.on_range(2, 7));
    expect_same_result(with.on_request(), without.on_request());
    expect_same_counters(with, without);
    ASSERT_TRUE(same_advance(with, without));
  }
}

TEST(Coalescing, BoundedAdmissionInvalidatesMemo) {
  DhbScheduler with(coalescing_config(true));
  DhbScheduler without(coalescing_config(false));
  for (int round = 0; round < 4; ++round) {
    expect_same_result(with.on_request(), without.on_request());
    const std::optional<DhbRequestResult> a = with.on_request_bounded(2);
    const std::optional<DhbRequestResult> b = without.on_request_bounded(2);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) expect_same_result(*a, *b);
    expect_same_result(with.on_request(), without.on_request());
    expect_same_counters(with, without);
    ASSERT_TRUE(same_advance(with, without));
    ASSERT_TRUE(same_advance(with, without));
  }
}

TEST(Coalescing, CappedClientsNeverCoalesce) {
  DhbConfig config = coalescing_config(true);
  config.client_stream_cap = 2;
  DhbScheduler s(config);
  s.on_request();
  s.on_request();
  s.on_request();
  EXPECT_EQ(s.total_coalesced_requests(), 0u);
}

TEST(Coalescing, FollowerCountersAdvanceLikeSequential) {
  DhbScheduler s(coalescing_config(true));
  s.on_request();
  const uint64_t probes_after_leader = s.total_slot_probes();
  const uint64_t shared_after_leader = s.total_shared();
  s.on_request();
  // A sequential second admission probes the same sum-of-windows and
  // shares every segment; the memoized follower must account identically.
  EXPECT_EQ(s.total_slot_probes(), 2 * probes_after_leader);
  EXPECT_EQ(s.total_shared(), shared_after_leader + 10);
  EXPECT_EQ(s.total_requests(), 2u);
  EXPECT_EQ(s.total_new_instances(), 10u);
}

}  // namespace
}  // namespace vod
