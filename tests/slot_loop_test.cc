// The one slot loop (schedule/slot_loop.h): the slot rule, the horizon
// check, and the next-event jump, on toy videos that record what the loop
// hands them.
#include "schedule/slot_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sim/arrival_process.h"

namespace vod {
namespace {

constexpr double kD = 72.7;  // the paper's slot

// Each arrival keeps the toy busy for `hold` slots after its own, one
// stream per busy slot, like a DHB schedule draining its last admission.
// With `rests` it reports quiet while nothing is due; its skip folds every
// skipped slot as a zero, so a correct jump leaves no trace in `sent`.
struct ToyVideo : SlotVideo {
  bool quiet() const { return rests && busy_until <= clock; }
  void skip(uint64_t from, uint64_t to) {
    EXPECT_EQ(from, clock + 1);
    EXPECT_LE(from, to);
    sent.insert(sent.end(), to - from, 0);
    clock = to - 1;
    jumps.emplace_back(from, to);
  }
  void serve(uint64_t t) {
    EXPECT_EQ(t, clock + 1);
    clock = t;
    sent.push_back(t <= busy_until ? 1 : 0);
  }
  void arrive(uint64_t t, double x) {
    EXPECT_EQ(t, clock);
    admitted.emplace_back(t, x);
    busy_until = std::max(busy_until, t + hold);
  }
  void close(uint64_t t) { EXPECT_EQ(t, clock); }

  bool rests = false;
  uint64_t hold = 3;
  uint64_t clock = 0;
  uint64_t busy_until = 0;
  std::vector<int> sent;  // per served or skipped slot, from slot 1
  std::vector<std::pair<uint64_t, double>> admitted;  // (slot, time)
  std::vector<std::pair<uint64_t, uint64_t>> jumps;   // skip(from, to)
};

ToyVideo run_toy(const SlotHorizon& horizon, std::vector<double> times,
                 bool rests) {
  ScriptedArrivals arrivals(std::move(times));
  ToyVideo video;
  video.rests = rests;
  run_slots(horizon, arrivals, video);
  return video;
}

// Slot t drains x < t·d: an arrival exactly on the boundary k·d belongs to
// slot k + 1, time 0 to slot 1, and +inf to no slot.
TEST(SlotLoop, ArrivalOnABoundaryIsAdmittedInTheNextSlot) {
  const SlotHorizon horizon(0.0, 1.0, kD);  // 50 slots
  ASSERT_EQ(horizon.total, 50u);
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> times = {0.0, 3.0 * kD, 3.0 * kD + 1e-9,
                                     7.0 * kD - 1e-9, 7.0 * kD, inf};
  const std::vector<uint64_t> want = {1, 4, 4, 7, 8};
  for (const bool rests : {false, true}) {
    const ToyVideo v = run_toy(horizon, times, rests);
    ASSERT_EQ(v.admitted.size(), want.size()) << rests;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(v.admitted[i].first, want[i]) << i << " " << rests;
      EXPECT_EQ(v.admitted[i].second, times[i]);
    }
    EXPECT_EQ(v.clock, horizon.total);
  }
  for (uint64_t k : {0u, 1u, 6u, 49u}) {
    const double x = static_cast<double>(k) * kD;
    EXPECT_EQ(arrival_slot(x, 1, 50, kD), k + 1) << k;
  }
  EXPECT_EQ(arrival_slot(inf, 1, 50, kD), 51u);
  EXPECT_EQ(arrival_slot(50.0 * kD, 1, 50, kD), 51u);  // past the horizon
  EXPECT_EQ(arrival_slot(0.0, 9, 50, kD), 9u);  // never behind `from`
}

// The jump is exact: a resting toy sends, admits and ends its clock as its
// never-quiet twin does. The script covers a jump from slot 1 to itself
// (an arrival at time 0), a jump that lands on the slot it starts from (an
// arrival in the slot the hold ends), long spans, and a last span that runs
// past the horizon.
TEST(SlotLoop, QuietSpansMatchTheSteppedTwin) {
  const SlotHorizon horizon(1.0, 3.0, kD);  // 50 + 149 slots
  const std::vector<double> times = {
      0.0,              // slot 1, quiet from the start
      4.0 * kD + 5.0,   // slot 5: the hold from slot 1 ended on slot 4
      30.5 * kD,        // slot 31, after a long quiet span
      31.0 * kD,        // slot 32, while busy
      90.0 * kD - 1.0,  // slot 90
      120.25 * kD,      // slot 121; quiet from slot 125 past the end
  };
  const ToyVideo stepped = run_toy(horizon, times, false);
  const ToyVideo jumped = run_toy(horizon, times, true);
  EXPECT_EQ(jumped.sent, stepped.sent);
  EXPECT_EQ(jumped.admitted, stepped.admitted);
  EXPECT_EQ(jumped.clock, stepped.clock);
  EXPECT_EQ(jumped.clock, horizon.total);
  ASSERT_EQ(jumped.sent.size(), horizon.total);
  EXPECT_TRUE(stepped.jumps.empty());
  const std::vector<std::pair<uint64_t, uint64_t>> want = {
      {1, 1},    {5, 5},   {9, 31}, {36, 90},
      {94, 121}, {125, horizon.total + 1}};
  EXPECT_EQ(jumped.jumps, want);
}

// Arrivals that never come: a quiet video skips the whole horizon at once.
TEST(SlotLoop, VideoWithoutArrivalsSkipsTheHorizon) {
  const SlotHorizon horizon(2.0, 2.0, kD);
  const ToyVideo jumped = run_toy(horizon, {}, true);
  ASSERT_EQ(jumped.jumps.size(), 1u);
  EXPECT_EQ(jumped.jumps[0].first, 1u);
  EXPECT_EQ(jumped.jumps[0].second, horizon.total + 1);
  EXPECT_EQ(jumped.clock, horizon.total);
  EXPECT_EQ(jumped.sent, run_toy(horizon, {}, false).sent);
}

TEST(SlotLoop, HorizonSplitsWarmupAndMeasuredSlots) {
  const SlotHorizon horizon(1.0, 2.0, kD);
  EXPECT_EQ(horizon.warmup, 50u);  // ceil(3600 / 72.7)
  EXPECT_EQ(horizon.total, 50u + 100u);
  EXPECT_EQ(horizon.measured(), 100u);
  EXPECT_FALSE(horizon.measuring(50));
  EXPECT_TRUE(horizon.measuring(51));
  EXPECT_EQ(horizon.meter().measured_slots(), 0u);
}

TEST(SlotLoopDeath, HostileHorizonFailsTheCheck) {
  const char* msg = "horizon must be finite";
  EXPECT_DEATH(SlotHorizon(std::nan(""), 1.0, kD), msg);
  EXPECT_DEATH(SlotHorizon(1.0, -1.0, kD), msg);
  EXPECT_DEATH(SlotHorizon(1.0, std::numeric_limits<double>::infinity(), kD),
               msg);
  EXPECT_DEATH(SlotHorizon(1e12, 1.0, kD), msg);
  EXPECT_DEATH(SlotHorizon(1.0, 1.0, 0.0), msg);
}

}  // namespace
}  // namespace vod
