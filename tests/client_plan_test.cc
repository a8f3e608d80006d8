#include "schedule/client_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/dhb.h"
#include "naive_oracle.h"
#include "sim/random.h"

namespace {

// The largest single heap request since the last reset: the far-reception
// case below checks that verify_plan never sizes a buffer by a plan's span.
std::atomic<std::size_t> g_largest_allocation{0};

void* recorded_alloc(std::size_t size) {
  std::size_t seen = g_largest_allocation.load();
  while (size > seen &&
         !g_largest_allocation.compare_exchange_weak(seen, size)) {
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return recorded_alloc(size); }
void* operator new[](std::size_t size) { return recorded_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace vod {
namespace {

// The paper's Figure 4: a request during slot 1 into an idle system gets
// S_i during slot 1 + i.
ClientPlan figure4_plan() {
  ClientPlan p;
  p.arrival_slot = 1;
  p.reception_slot = {2, 3, 4, 5, 6, 7};
  return p;
}

TEST(VerifyPlan, Figure4MeetsEverything) {
  const PlanDiagnostics d = verify_plan(figure4_plan());
  EXPECT_TRUE(d.deadlines_met);
  EXPECT_EQ(d.first_violation, 0);
  // One segment per slot, consumed as received: one stream, no backlog.
  EXPECT_EQ(d.max_concurrent_streams, 1);
  EXPECT_EQ(d.max_buffered_segments, 0);
}

// The paper's Figure 5 second request: arrives during slot 3, shares S3..S6
// (slots 4..7 from the first request), gets fresh S1 in slot 4, S2 in 5.
TEST(VerifyPlan, Figure5SecondRequest) {
  ClientPlan p;
  p.arrival_slot = 3;
  p.reception_slot = {4, 5, 6, 7, 8, 9};
  const PlanDiagnostics d = verify_plan(p);
  EXPECT_TRUE(d.deadlines_met);
  EXPECT_EQ(d.max_concurrent_streams, 1);
}

TEST(VerifyPlan, LateSegmentViolates) {
  ClientPlan p;
  p.arrival_slot = 0;
  p.reception_slot = {1, 3};  // S2 due by slot 2, received in slot 3
  const PlanDiagnostics d = verify_plan(p);
  EXPECT_FALSE(d.deadlines_met);
  EXPECT_EQ(d.first_violation, 2);
}

TEST(VerifyPlan, ReceptionInArrivalSlotViolates) {
  ClientPlan p;
  p.arrival_slot = 5;
  p.reception_slot = {5};  // S1 cannot use a transmission already under way
  EXPECT_FALSE(verify_plan(p).deadlines_met);
}

TEST(VerifyPlan, EarlyReceptionBuffersSegments) {
  ClientPlan p;
  p.arrival_slot = 0;
  p.reception_slot = {1, 1, 1};  // everything in the first slot
  const PlanDiagnostics d = verify_plan(p);
  EXPECT_TRUE(d.deadlines_met);
  EXPECT_EQ(d.max_concurrent_streams, 3);
  // After slot 1: received 3, consumed 1 -> 2 buffered.
  EXPECT_EQ(d.max_buffered_segments, 2);
}

TEST(VerifyPlan, CustomPeriodsTightenDeadlines) {
  ClientPlan p;
  p.arrival_slot = 0;
  p.reception_slot = {1, 2, 3};
  // T = {1, 1, 3}: segment 2 must now arrive by slot 1.
  const PlanDiagnostics d = verify_plan(p, {1, 1, 3});
  EXPECT_FALSE(d.deadlines_met);
  EXPECT_EQ(d.first_violation, 2);
}

TEST(VerifyPlan, CustomPeriodsRelaxDeadlines) {
  ClientPlan p;
  p.arrival_slot = 0;
  p.reception_slot = {1, 4, 4};
  // Work-ahead periods: segment 2 may wait until slot 4.
  const PlanDiagnostics d = verify_plan(p, {1, 4, 5});
  EXPECT_TRUE(d.deadlines_met);
}

TEST(VerifyPlan, ConcurrencyCountsPerSlot) {
  ClientPlan p;
  p.arrival_slot = 10;
  p.reception_slot = {11, 12, 12, 12, 15, 15};
  const PlanDiagnostics d = verify_plan(p);
  EXPECT_TRUE(d.deadlines_met);
  EXPECT_EQ(d.max_concurrent_streams, 3);
}

TEST(VerifyPlan, BufferPeaksMidway) {
  ClientPlan p;
  p.arrival_slot = 0;
  p.reception_slot = {1, 2, 2, 2, 5};
  const PlanDiagnostics d = verify_plan(p);
  // End of slot 2: received 4, consumed 2 -> buffer 2.
  EXPECT_EQ(d.max_buffered_segments, 2);
}

TEST(VerifyPlan, NonPositiveArrivalSupported) {
  ClientPlan p;
  p.arrival_slot = -3;
  p.reception_slot = {-2, -1};
  EXPECT_TRUE(verify_plan(p).deadlines_met);
}

TEST(VerifyPlan, FarReceptionReturnsAtOnceWithoutASpanSizedBuffer) {
  // S3 arrives 10^12 slots after the client: a walk over every slot
  // boundary would take hours and a count per slot of the span would need
  // 4 TB. By hand: S3 misses its deadline (slot 3 at most, under either
  // period vector); slot 1 carries two segments; after slot 1 the client
  // holds two and has consumed one, and no later boundary holds more.
  ClientPlan p;
  p.arrival_slot = 0;
  p.reception_slot = {1, 1, 1'000'000'000'000};
  for (const std::vector<int>& periods :
       {std::vector<int>{}, std::vector<int>{1, 2, 3}}) {
    g_largest_allocation = 0;
    const PlanDiagnostics d = verify_plan(p, periods);
    EXPECT_LT(g_largest_allocation.load(), std::size_t{1024});
    EXPECT_FALSE(d.deadlines_met);
    EXPECT_EQ(d.first_violation, 3);
    EXPECT_EQ(d.max_concurrent_streams, 2);
    EXPECT_EQ(d.max_buffered_segments, 1);
  }
}

// --- Differential: verify_plan against naive_verify_plan (naive_oracle.h),
// the std::map implementation it replaced, field by field.

std::string describe(const ClientPlan& plan, const std::vector<int>& periods) {
  std::ostringstream os;
  os << "arrival " << plan.arrival_slot << ", receptions {";
  for (const Slot s : plan.reception_slot) os << " " << s;
  os << " }, periods {";
  for (const int t : periods) os << " " << t;
  os << " }";
  return os.str();
}

void expect_matches_oracle(const ClientPlan& plan,
                           const std::vector<int>& periods) {
  const PlanDiagnostics got = verify_plan(plan, periods);
  const PlanDiagnostics want = naive_verify_plan(plan, periods);
  EXPECT_EQ(got.deadlines_met, want.deadlines_met) << describe(plan, periods);
  EXPECT_EQ(got.first_violation, want.first_violation)
      << describe(plan, periods);
  EXPECT_EQ(got.max_concurrent_streams, want.max_concurrent_streams)
      << describe(plan, periods);
  EXPECT_EQ(got.max_buffered_segments, want.max_buffered_segments)
      << describe(plan, periods);
}

// Every plan twice: under the period vector given and under the CBR
// default, which for a resume or a non-CBR video is a different contract
// (and for hand-made plans often a violated one).
void expect_matches_oracle_both_ways(const ClientPlan& plan,
                                     const std::vector<int>& periods) {
  expect_matches_oracle(plan, periods);
  expect_matches_oracle(plan, {});
}

// The paper's §4 shapes, for any n: work-ahead slack (T[j] > j) and
// deadline-tight periods (T[j] < j).
std::vector<int> work_ahead_periods(int n) {
  std::vector<int> t = {1};
  for (int j = 2; j <= n; ++j) t.push_back(j + j / 3);
  return t;
}
std::vector<int> tight_periods(int n) {
  std::vector<int> t = {1};
  for (int j = 2; j <= n; ++j) t.push_back((2 * j + 1) / 3);
  return t;
}

TEST(VerifyPlanDifferential, SchedulerPlansMatchTheTreeWalk) {
  struct Mode {
    int client_cap = 0;   // DhbConfig::client_stream_cap
    int bounded_cap = 0;  // > 0: full requests through on_request_bounded
  };
  uint64_t plans = 0;
  uint64_t seed = 0;
  for (const int n : {12, 99}) {
    for (const std::vector<int>& periods :
         {std::vector<int>{}, work_ahead_periods(n), tight_periods(n)}) {
      for (const Mode mode : {Mode{0, 0}, Mode{1, 0}, Mode{2, 0}, Mode{0, 4}}) {
        DhbConfig config;
        config.num_segments = n;
        config.periods = periods;
        config.client_stream_cap = mode.client_cap;
        DhbScheduler dhb(config);
        Rng rng(++seed);
        for (int slot = 0; slot < 300; ++slot) {
          dhb.advance_slot_view();
          for (uint64_t k = rng.poisson(0.6); k > 0; --k) {
            const double op = rng.uniform();
            if (op < 0.2) {  // VCR resume: watch S_f..S_n
              const Segment f = static_cast<Segment>(
                  2 + rng.uniform_index(static_cast<uint64_t>(n - 1)));
              expect_matches_oracle_both_ways(dhb.on_range(f, n).plan,
                                              dhb.resume_periods(f));
            } else if (op < 0.35) {  // declared-length prefix: S_1..S_l
              const Segment l = static_cast<Segment>(
                  1 + rng.uniform_index(static_cast<uint64_t>(n - 1)));
              const std::vector<int> prefix(dhb.periods().begin(),
                                            dhb.periods().begin() + l);
              expect_matches_oracle_both_ways(dhb.on_range(1, l).plan, prefix);
            } else if (mode.bounded_cap > 0) {
              const std::optional<DhbRequestResult> r =
                  dhb.on_request_bounded(mode.bounded_cap);
              if (!r) continue;
              expect_matches_oracle_both_ways(r->plan, dhb.periods());
            } else {
              expect_matches_oracle_both_ways(dhb.on_request().plan,
                                              dhb.periods());
            }
            ++plans;
            if (testing::Test::HasFailure()) return;
          }
        }
      }
    }
  }
  EXPECT_GT(plans, 3000u);
}

TEST(VerifyPlanDifferential, HandMadePlansMatchTheTreeWalk) {
  struct Case {
    Slot arrival;
    std::vector<Slot> receptions;
  };
  const std::vector<Case> cases = {
      {0, {}},                  // n = 0
      {0, {1}},                 // n = 1, on time
      {4, {4}},                 // n = 1, in the arrival slot
      {4, {2}},                 // n = 1, before the arrival
      {4, {9}},                 // n = 1, late
      {0, {1, 1, 1, 2}},        // duplicate slots
      {0, {2, 2, 3, 3, 3, 5}},  // duplicates, S1 late
      {5, {5, 7, 8}},           // S1 in the arrival slot
      {5, {3, 6, 9}},           // S1 before the arrival
      {10, {1, 2, 3}},          // everything before the arrival
      {10, {10, 10, 10}},       // everything in the arrival slot
      {0, {1, 5, 3}},           // S2 past its deadline
      {0, {4, 1, 2, 3}},        // S1 late, the rest early
      {-7, {-6, -4, -5}},       // negative arrival
      {-3, {-10, -2, 1}},       // negative arrival, S1 long before it
      {-1'000, {-999, -999, -990}},
      {0, {1, 500, 2}},         // wide: sorted unless T[2] covers it
      {0, {-400, 1, 2, 400}},   // wide on both sides of the arrival
      {3, {900, 900, 4, 4}},    // wide, duplicates at both ends
  };
  for (const Case& c : cases) {
    ClientPlan plan;
    plan.arrival_slot = c.arrival;
    plan.reception_slot = c.receptions;
    const int n = plan.num_segments();
    std::vector<int> cbr, slack, tight, wide;
    for (int j = 1; j <= n; ++j) {
      cbr.push_back(j);
      slack.push_back(2 * j);
      tight.push_back(std::max(1, j - 1));
      wide.push_back(j == n ? 1'000 : j);
    }
    for (const std::vector<int>& periods : {cbr, slack, tight, wide}) {
      expect_matches_oracle_both_ways(plan, periods);
    }
  }
}

TEST(VerifyPlanDifferential, RandomHandMadePlansMatchTheTreeWalk) {
  // Small plans of any shape, half of them spread over hundreds of slots:
  // most of those are wider than n + max T[j] and take the sorted path,
  // the rest the count per slot.
  Rng rng(20010416);
  int wide = 0;
  for (int i = 0; i < 20'000 && !testing::Test::HasFailure(); ++i) {
    const int n = static_cast<int>(rng.uniform_index(9));
    ClientPlan plan;
    plan.arrival_slot = static_cast<Slot>(rng.uniform_index(61)) - 30;
    const bool spread = rng.uniform() < 0.5;
    const Slot lo = plan.arrival_slot - (spread ? 40 : 3);
    const uint64_t range = spread ? 441 : static_cast<uint64_t>(n) + 7;
    for (int j = 0; j < n; ++j) {
      plan.reception_slot.push_back(
          lo + static_cast<Slot>(rng.uniform_index(range)));
    }
    std::vector<int> periods;
    if (rng.uniform() < 0.7) {
      for (int j = 0; j < n; ++j) {
        periods.push_back(static_cast<int>(
            rng.uniform_index(static_cast<uint64_t>(2 * n + 3))) - 1);
      }
    }
    expect_matches_oracle(plan, periods);
    if (n > 0) {
      const auto [first, last] = std::minmax_element(
          plan.reception_slot.begin(), plan.reception_slot.end());
      const int max_period =
          periods.empty() ? n
                          : std::max(0, *std::max_element(periods.begin(),
                                                          periods.end()));
      if (*last - *first >= n + max_period) ++wide;
    }
  }
  EXPECT_GT(wide, 5'000);
}

}  // namespace
}  // namespace vod
