// Unit tests for schedule/slot_math.h — the one approved home for modular
// slot arithmetic (enforced by the vod-raw-slot-modulo clang-tidy check)
// and for the hours-to-slots horizon conversion. The modular cases
// concentrate on the seams the raw `%` idioms got wrong: the 1-based slot
// convention, cycle boundaries, and negative congruences (C++ `%`
// truncates toward zero).
#include "schedule/slot_math.h"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>

namespace vod {
namespace {

TEST(SlotMath, CyclePhaseNormalizesOneBasedSlots) {
  // slot 1 is phase 0, slot `cycle` is the last phase, slot cycle+1 wraps.
  EXPECT_EQ(cycle_phase(1, 4), 0);
  EXPECT_EQ(cycle_phase(2, 4), 1);
  EXPECT_EQ(cycle_phase(4, 4), 3);
  EXPECT_EQ(cycle_phase(5, 4), 0);
  EXPECT_EQ(cycle_phase(9, 4), 0);
}

TEST(SlotMath, CyclePhaseDegenerateCycle) {
  // A cycle of 1 repeats every slot: the phase is always 0.
  for (Slot s = 1; s <= 10; ++s) EXPECT_EQ(cycle_phase(s, 1), 0);
}

TEST(SlotMath, CyclePhaseIsPeriodic) {
  for (Slot cycle = 1; cycle <= 7; ++cycle) {
    for (Slot s = 1; s <= 50; ++s) {
      EXPECT_EQ(cycle_phase(s, cycle), cycle_phase(s + cycle, cycle))
          << "slot " << s << " cycle " << cycle;
      EXPECT_GE(cycle_phase(s, cycle), 0);
      EXPECT_LT(cycle_phase(s, cycle), cycle);
    }
  }
}

TEST(SlotMath, StrideHitsEnumeratesTheProgression) {
  // stride 3, offset 1: slots 2, 5, 8, ... (phase 1 of each 3-cycle).
  for (Slot s = 1; s <= 30; ++s) {
    EXPECT_EQ(stride_hits(s, 3, 1), (s - 2) % 3 == 0 && s >= 2)
        << "slot " << s;
  }
}

TEST(SlotMath, StrideHitsPartitionsSlotsAcrossOffsets) {
  // For a fixed stride, every slot hits exactly one offset.
  for (Slot stride = 1; stride <= 6; ++stride) {
    for (Slot s = 1; s <= 40; ++s) {
      int hits = 0;
      for (Slot offset = 0; offset < stride; ++offset) {
        hits += stride_hits(s, stride, offset) ? 1 : 0;
      }
      EXPECT_EQ(hits, 1) << "slot " << s << " stride " << stride;
    }
  }
}

TEST(SlotMath, StrideOneHitsEverySlot) {
  for (Slot s = 1; s <= 10; ++s) EXPECT_TRUE(stride_hits(s, 1, 0));
}

TEST(SlotMath, CongruentModBasic) {
  EXPECT_TRUE(congruent_mod(7, 3, 4));
  EXPECT_TRUE(congruent_mod(3, 7, 4));
  EXPECT_FALSE(congruent_mod(7, 4, 4));
  EXPECT_TRUE(congruent_mod(5, 5, 9));
  // Modulus 1: everything is congruent.
  EXPECT_TRUE(congruent_mod(2, 11, 1));
}

TEST(SlotMath, CongruentModHandlesNegativeDifferences) {
  // The raw-% trap: (a - b) % m is negative for a < b under C++'s
  // truncation, so a naive `== r` test with r > 0 silently fails.
  // Congruence itself (r == 0) must stay sign-safe.
  EXPECT_TRUE(congruent_mod(1, 10, 3));   // 1 - 10 = -9, divisible by 3
  EXPECT_FALSE(congruent_mod(1, 9, 3));   // -8 is not
  EXPECT_TRUE(congruent_mod(-4, 2, 3));   // -6 divisible by 3
  EXPECT_TRUE(congruent_mod(-4, -1, 3));  // -3 divisible by 3
  EXPECT_FALSE(congruent_mod(-4, 0, 3));
}

TEST(SlotMath, CongruentModMatchesOffsetCollisionRule) {
  // Two NPB progressions (stride_a, off_a) and (stride_b, off_b) share a
  // slot iff off_a ≡ off_b (mod gcd(stride_a, stride_b)) — verify the
  // congruence test against a brute-force slot walk.
  for (Slot sa = 1; sa <= 5; ++sa) {
    for (Slot sb = 1; sb <= 5; ++sb) {
      const Slot g = std::gcd(sa, sb);
      for (Slot oa = 0; oa < sa; ++oa) {
        for (Slot ob = 0; ob < sb; ++ob) {
          bool collide = false;
          for (Slot s = 1; s <= sa * sb; ++s) {
            if (stride_hits(s, sa, oa) && stride_hits(s, sb, ob)) {
              collide = true;
              break;
            }
          }
          EXPECT_EQ(congruent_mod(oa, ob, g), collide)
              << "strides " << sa << "," << sb << " offsets " << oa << ","
              << ob;
        }
      }
    }
  }
}

TEST(SlotMath, CyclePhaseGivesHourOfDay) {
  // Pins the examples/daily_demand.cpp bucketing: hour-of-day from an
  // elapsed-hours count is cycle_phase(hours + 1, 24) — the 1-based
  // helper reproduces the raw `hours % 24` it replaced, across several
  // simulated days.
  for (Slot hours = 0; hours < 24 * 7; ++hours) {
    EXPECT_EQ(cycle_phase(hours + 1, 24), hours % 24) << "hour " << hours;
  }
}

TEST(SlotMath, HorizonSlotsRoundsUp) {
  EXPECT_EQ(horizon_slots(0.0, 72.7), 0u);
  EXPECT_EQ(horizon_slots(2.0, 60.0), 120u);
  EXPECT_EQ(horizon_slots(1.0, 7200.0), 1u);  // half a slot still runs
  EXPECT_EQ(horizon_slots(100.0, 7200.0 / 99.0), 4950u);
  // The bound itself is accepted (3600-s slots make hours == slots).
  const auto bound = static_cast<double>(kMaxHorizonSlots);
  EXPECT_EQ(horizon_slots(bound, 3600.0), kMaxHorizonSlots);
  EXPECT_FALSE(horizon_fits(bound + 1.0, 3600.0));
}

TEST(SlotMathDeath, HorizonSlotsRejectsHostileHorizons) {
  // A horizon whose slot count leaves uint64_t, a catalog horizon far past
  // any real run, non-finite and negative hours, and a zero slot length.
  EXPECT_DEATH(horizon_slots(1e300, 7200.0 / 99.0), "horizon");
  EXPECT_DEATH(horizon_slots(1e12, 72.7), "horizon");
  EXPECT_DEATH(horizon_slots(std::numeric_limits<double>::infinity(), 72.7),
               "horizon");
  EXPECT_DEATH(horizon_slots(std::numeric_limits<double>::quiet_NaN(), 72.7),
               "horizon");
  EXPECT_DEATH(horizon_slots(-1.0, 72.7), "horizon");
  EXPECT_DEATH(horizon_slots(1.0, 0.0), "horizon");
}

TEST(SlotMath, HelpersAreConstexpr) {
  static_assert(cycle_phase(7, 3) == 0);
  static_assert(stride_hits(7, 3, 0));
  static_assert(congruent_mod(-2, 4, 3));
  SUCCEED();
}

}  // namespace
}  // namespace vod
