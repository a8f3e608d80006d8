// Property-based suites for the DHB scheduler: randomized arrival patterns,
// parameterized over (segment count, arrival intensity, heuristic), checking
// the protocol's contracts on every admitted request.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/dhb.h"
#include "naive_oracle.h"
#include "obs/metrics.h"
#include "protocols/harmonic.h"
#include "sim/random.h"

namespace vod {
namespace {

struct PropertyParams {
  int num_segments;
  double arrivals_per_slot;
  SlotHeuristic heuristic;
};

class DhbPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, double, SlotHeuristic>> {
};

// Every admitted request, under every heuristic and load level, must meet
// every deadline, and uncapped DHB must keep the <=1-future-instance
// sharing invariant.
TEST_P(DhbPropertyTest, DeadlinesAndSharingInvariant) {
  const auto [n, per_slot, heuristic] = GetParam();
  DhbConfig c;
  c.num_segments = n;
  c.heuristic = heuristic;
  DhbScheduler s(c);
  Rng rng(static_cast<uint64_t>(n) * 1000003 +
          static_cast<uint64_t>(per_slot * 977) +
          static_cast<uint64_t>(heuristic));

  for (int step = 0; step < 400; ++step) {
    s.advance_slot_view();
    const uint64_t arrivals = rng.poisson(per_slot);
    for (uint64_t a = 0; a < arrivals; ++a) {
      const DhbRequestResult r = s.on_request();
      const PlanDiagnostics d = verify_plan(r.plan);
      ASSERT_TRUE(d.deadlines_met)
          << "segment S" << d.first_violation << " late at slot "
          << s.current_slot();
      ASSERT_EQ(r.new_instances + r.shared_instances, n);
    }
    for (Segment j = 1; j <= n; ++j) {
      ASSERT_LE(s.schedule().instances_of(j).size(), 1u);
    }
  }
}

// The server never transmits more than one instance of a segment per slot,
// and per-slot bandwidth is bounded by n.
TEST_P(DhbPropertyTest, PerSlotTransmissionsWellFormed) {
  const auto [n, per_slot, heuristic] = GetParam();
  DhbConfig c;
  c.num_segments = n;
  c.heuristic = heuristic;
  DhbScheduler s(c);
  Rng rng(42 + static_cast<uint64_t>(n));

  for (int step = 0; step < 300; ++step) {
    const std::span<const Segment> tx = s.advance_slot_view();
    ASSERT_LE(static_cast<int>(tx.size()), n);
    std::vector<Segment> sorted(tx.begin(), tx.end());
    std::sort(sorted.begin(), sorted.end());
    ASSERT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end())
        << "duplicate segment in one slot";
    const uint64_t arrivals = rng.poisson(per_slot);
    for (uint64_t a = 0; a < arrivals; ++a) s.on_request();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DhbPropertyTest,
    ::testing::Combine(
        ::testing::Values(1, 2, 6, 25, 99),
        ::testing::Values(0.05, 0.5, 2.0),
        ::testing::Values(SlotHeuristic::kMinLoadLatest,
                          SlotHeuristic::kLatest,
                          SlotHeuristic::kEarliest,
                          SlotHeuristic::kMinLoadEarliest,
                          SlotHeuristic::kRandom)),
    [](const auto& param_info) {
      std::string name =
          "n" + std::to_string(std::get<0>(param_info.param)) + "_load" +
          std::to_string(static_cast<int>(std::get<1>(param_info.param) * 100)) +
          "_" + to_string(std::get<2>(param_info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// Every counter a scheduler exports, by name.
std::map<std::string, uint64_t> exported(const DhbScheduler& dhb) {
  obs::MetricShard shard;
  dhb.export_metrics(&shard);
  std::map<std::string, uint64_t> out;
  for (const auto& [name, counter] : shard.counters()) {
    out[name] = counter.value();
  }
  return out;
}

// An empty step is translation-invariant: stepping through idle slots only
// moves the clock. One scheduler is stepped on every slot; its twin only
// while its schedule is non-empty, as a caller that skipped idle slots
// would, so the twin's clock lags by the slots it skipped, and every plan
// and transmission must match the stepped scheduler's shifted by exactly
// that lag. Sparse bursts drain the schedule between them, and the lag moves
// the twin's ring positions off the stepped scheduler's, so the placement
// paths also run across different ring wraps. A third scheduler crosses
// each empty span with one advance_to() call, as the catalog engine does:
// its clock, plans, transmissions and exported counters must equal the
// stepped scheduler's with no shift at all.
class DhbEmptyStepTest
    : public ::testing::TestWithParam<std::tuple<SlotHeuristic, bool>> {};

TEST_P(DhbEmptyStepTest, EmptyStepsAreTranslationInvariant) {
  const auto [heuristic, use_index] = GetParam();
  DhbConfig c;
  c.num_segments = 30;
  c.heuristic = heuristic;
  c.use_placement_index = use_index;
  c.placement_index_cutover = 0;  // the index, when on, always engages
  DhbScheduler stepped(c);
  DhbScheduler twin(c);
  DhbScheduler jumped(c);
  Rng rng(11 + static_cast<uint64_t>(heuristic) * 2 + (use_index ? 1 : 0));

  Slot skipped = 0;
  uint64_t requests = 0;
  int jumps = 0;
  for (int step = 0; step < 4000; ++step) {
    const std::span<const Segment> view = stepped.advance_slot_view();
    const std::vector<Segment> sent(view.begin(), view.end());
    if (twin.schedule().total_scheduled() > 0) {
      const std::span<const Segment> twin_sent = twin.advance_slot_view();
      ASSERT_TRUE(std::equal(sent.begin(), sent.end(), twin_sent.begin(),
                             twin_sent.end()))
          << "slot " << stepped.current_slot();
    } else {
      ASSERT_TRUE(sent.empty()) << "slot " << stepped.current_slot();
      ++skipped;
    }
    ASSERT_EQ(stepped.current_slot() - twin.current_slot(), skipped);
    if (jumped.schedule().total_scheduled() > 0) {
      const std::span<const Segment> jumped_sent = jumped.advance_slot_view();
      ASSERT_TRUE(std::equal(sent.begin(), sent.end(), jumped_sent.begin(),
                             jumped_sent.end()))
          << "slot " << stepped.current_slot();
      ASSERT_EQ(jumped.current_slot(), stepped.current_slot());
    }

    const uint64_t burst = rng.uniform() < 0.02 ? 1 + rng.poisson(3.0) : 0;
    if (burst > 0 && jumped.schedule().total_scheduled() == 0) {
      jumped.advance_to(stepped.current_slot());
      ++jumps;
    }
    for (uint64_t k = 0; k < burst; ++k, ++requests) {
      const DhbRequestResult a = stepped.on_request();
      const DhbRequestResult b = twin.on_request();
      const DhbRequestResult r = jumped.on_request();
      ASSERT_EQ(a.plan.arrival_slot - b.plan.arrival_slot, skipped);
      ASSERT_EQ(a.plan.reception_slot.size(), b.plan.reception_slot.size());
      for (size_t j = 0; j < a.plan.reception_slot.size(); ++j) {
        ASSERT_EQ(a.plan.reception_slot[j] - b.plan.reception_slot[j],
                  skipped)
            << "S" << j + 1 << " at slot " << stepped.current_slot();
      }
      ASSERT_EQ(a.new_instances, b.new_instances);
      ASSERT_EQ(r.plan.arrival_slot, a.plan.arrival_slot);
      ASSERT_EQ(r.plan.reception_slot, a.plan.reception_slot)
          << "slot " << stepped.current_slot();
      ASSERT_EQ(r.new_instances, a.new_instances);
      ASSERT_EQ(r.shared_instances, a.shared_instances);
    }
  }
  EXPECT_GT(skipped, 1000);  // the twin really did skip idle spans
  EXPECT_GT(requests, 100u);
  EXPECT_EQ(stepped.total_work_units(), twin.total_work_units());
  EXPECT_EQ(stepped.total_new_instances(), twin.total_new_instances());
  EXPECT_EQ(stepped.total_coalesced_requests(),
            twin.total_coalesced_requests());

  // The last span, if the run ends on one, is crossed the same way.
  if (jumped.schedule().total_scheduled() == 0) {
    jumped.advance_to(stepped.current_slot());
  }
  EXPECT_GT(jumps, 20);
  EXPECT_EQ(jumped.current_slot(), stepped.current_slot());
  EXPECT_EQ(exported(jumped), exported(stepped));
}

INSTANTIATE_TEST_SUITE_P(
    Placement, DhbEmptyStepTest,
    ::testing::Combine(::testing::Values(SlotHeuristic::kMinLoadLatest,
                                         SlotHeuristic::kLatest),
                       ::testing::Bool()),
    [](const auto& param_info) {
      std::string name = to_string(std::get<0>(param_info.param)) +
                         (std::get<1>(param_info.param) ? "_index"
                                                        : "_scan");
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// Steps `dhb` until its schedule has drained, then one slot more.
void drain(DhbScheduler* dhb) {
  while (dhb->schedule().total_scheduled() > 0) dhb->advance_slot_view();
  dhb->advance_slot_view();
}

// The first full admission into an empty schedule runs the Figure 6 loop
// (below the cutover: a window-wide scan per placement) and records its
// offsets; the next one is committed from that record at the replay price
// of 3 work units per segment, places the same offsets, and still charges
// the logical probes of a full request.
TEST(DhbEmptyPlan, ReplayIsChargedTheReplayPrice) {
  DhbConfig c;  // n = 99: 99 * 99 is below the default index cutover
  DhbScheduler dhb(c);
  ASSERT_FALSE(dhb.placement_index_active());
  ASSERT_FALSE(dhb.schedule().has_placement_index());
  const uint64_t n = 99;
  const uint64_t sum_periods = n * (n + 1) / 2;

  dhb.advance_slot_view();
  uint64_t work = dhb.total_work_units();
  uint64_t probes = dhb.total_slot_probes();
  const DhbRequestResult first = dhb.on_request();
  // Per segment: a share check, a scan as wide as the window, a commit.
  EXPECT_EQ(dhb.total_work_units() - work, 2 * n + sum_periods);
  EXPECT_EQ(dhb.total_slot_probes() - probes, sum_periods);

  drain(&dhb);
  work = dhb.total_work_units();
  probes = dhb.total_slot_probes();
  const DhbRequestResult second = dhb.on_request();
  EXPECT_EQ(dhb.total_work_units() - work, 3 * n);
  EXPECT_EQ(dhb.total_slot_probes() - probes, sum_periods);
  EXPECT_EQ(second.new_instances, 99);
  EXPECT_EQ(second.shared_instances, 0);
  ASSERT_EQ(second.plan.reception_slot.size(), n);
  for (size_t j = 0; j < n; ++j) {
    EXPECT_EQ(second.plan.reception_slot[j] - second.plan.arrival_slot,
              first.plan.reception_slot[j] - first.plan.arrival_slot)
        << "S" << j + 1;
  }
  EXPECT_EQ(dhb.total_requests(), 2u);
  EXPECT_EQ(dhb.total_new_instances(), 2 * n);
  EXPECT_EQ(dhb.schedule().total_index_updates(), 0u);
}

// set_heuristic() drops the recorded plan: after a min-load-latest empty
// admission and a switch to kEarliest, the next empty admissions place
// every segment in the first slot, as the naive Figure 6 transcription
// does under that rule.
TEST(DhbEmptyPlan, SetHeuristicDropsTheRecordedPlan) {
  DhbConfig c;
  c.num_segments = 20;
  DhbScheduler dhb(c);
  dhb.advance_slot_view();
  const DhbRequestResult latest = dhb.on_request();
  ASSERT_EQ(latest.plan.reception_slot.back(), latest.plan.arrival_slot + 20);
  drain(&dhb);

  dhb.set_heuristic(SlotHeuristic::kEarliest);
  for (int round = 0; round < 2; ++round) {
    NaiveOracle oracle(20, {}, SlotHeuristic::kEarliest);
    for (Slot now = 0; now < dhb.current_slot(); ++now) oracle.advance();
    const DhbRequestResult r = dhb.on_request();
    EXPECT_EQ(r.plan.reception_slot, oracle.admit_range(1, 20))
        << "round " << round;
    for (const Slot slot : r.plan.reception_slot) {
      EXPECT_EQ(slot, r.plan.arrival_slot + 1) << "round " << round;
    }
    drain(&dhb);
  }
}

// advance_to() only crosses empty spans, and only forward.
TEST(DhbSchedulerDeath, AdvanceToRequiresAnEmptySchedule) {
  DhbConfig c;
  c.num_segments = 5;
  DhbScheduler dhb(c);
  dhb.advance_slot_view();
  dhb.on_request();
  EXPECT_DEATH(dhb.advance_to(dhb.current_slot() + 10), "non-empty schedule");
}

TEST(DhbSchedulerDeath, AdvanceToRejectsATargetBehindTheClock) {
  DhbConfig c;
  c.num_segments = 5;
  DhbScheduler dhb(c);
  dhb.advance_to(7);
  ASSERT_EQ(dhb.current_slot(), 7);
  dhb.advance_to(7);  // the clock itself is a legal target
  EXPECT_DEATH(dhb.advance_to(6), "behind the clock");
}

class DhbCappedPropertyTest : public ::testing::TestWithParam<int> {};

// The capped variant must still meet every deadline, and whenever it
// reports zero violations the client concurrency must actually be within
// the cap.
TEST_P(DhbCappedPropertyTest, CapRespectedOrReported) {
  const int cap = GetParam();
  DhbConfig c;
  c.num_segments = 40;
  c.client_stream_cap = cap;
  DhbScheduler s(c);
  Rng rng(7u * static_cast<uint64_t>(cap) + 1);

  for (int step = 0; step < 300; ++step) {
    s.advance_slot_view();
    const uint64_t arrivals = rng.poisson(0.8);
    for (uint64_t a = 0; a < arrivals; ++a) {
      const DhbRequestResult r = s.on_request();
      const PlanDiagnostics d = verify_plan(r.plan);
      ASSERT_TRUE(d.deadlines_met);
      if (r.cap_violations == 0) {
        ASSERT_LE(d.max_concurrent_streams, cap);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Caps, DhbCappedPropertyTest,
                         ::testing::Values(1, 2, 3, 5),
                         [](const auto& param_info) {
                           return "cap" + std::to_string(param_info.param);
                         });

// Saturation behaviour: with at least one request per slot, the average
// bandwidth converges to roughly the harmonic number H_n — each segment
// S_j is transmitted about once every j slots (§3's minimum-frequency
// argument).
TEST(DhbSaturation, AverageApproachesHarmonicNumber) {
  const int n = 99;
  DhbConfig c;
  c.num_segments = n;
  DhbScheduler s(c);
  Rng rng(314);
  uint64_t transmissions = 0;
  const int warmup = 300, measured = 4000;
  for (int step = 0; step < warmup + measured; ++step) {
    const size_t streams = s.advance_slot_view().size();
    if (step >= warmup) transmissions += streams;
    s.on_request();
    if (rng.uniform() < 0.5) s.on_request();
  }
  const double avg =
      static_cast<double>(transmissions) / static_cast<double>(measured);
  const double h = harmonic_number(n);
  EXPECT_GE(avg, h - 0.05);  // cannot beat the harmonic floor
  EXPECT_LE(avg, h + 0.60);  // and the heuristic stays near it
}

// At saturation every segment's realized transmission period is at most its
// index (the §3 minimum-frequency property), measured on the wire.
TEST(DhbSaturation, WirePeriodsWithinBounds) {
  const int n = 30;
  DhbConfig c;
  c.num_segments = n;
  DhbScheduler s(c);
  std::vector<Slot> last(static_cast<size_t>(n) + 1, 0);
  for (int step = 0; step < 1000; ++step) {
    const std::span<const Segment> tx = s.advance_slot_view();
    const Slot now = s.current_slot();
    for (Segment j : tx) {
      if (last[static_cast<size_t>(j)] != 0) {
        EXPECT_LE(now - last[static_cast<size_t>(j)], j) << "S" << j;
      }
      last[static_cast<size_t>(j)] = now;
    }
    s.on_request();
  }
}

}  // namespace
}  // namespace vod
