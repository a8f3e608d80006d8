// Unit tests for the range-min placement index (schedule/load_index.h) and
// its integration into SlotSchedule: tie-break directions, ring wraparound,
// advance-time eviction, and a randomized differential against the literal
// linear scans.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "schedule/load_index.h"
#include "schedule/slot_schedule.h"
#include "sim/random.h"

namespace vod {
namespace {

TEST(LoadIndex, EmptyTreeIsAllZero) {
  LoadIndex idx(7);
  for (size_t p = 0; p < 7; ++p) EXPECT_EQ(idx.value(p), 0);
  const LoadIndex::MinResult latest = idx.min_latest(0, 6);
  EXPECT_EQ(latest.load, 0);
  EXPECT_EQ(latest.pos, 6u);  // tie over all-equal values -> highest pos
  const LoadIndex::MinResult earliest = idx.min_earliest(0, 6);
  EXPECT_EQ(earliest.load, 0);
  EXPECT_EQ(earliest.pos, 0u);  // -> lowest pos
}

TEST(LoadIndex, AddAndPointValues) {
  LoadIndex idx(5);
  idx.add(2, 3);
  idx.add(4, 1);
  idx.add(2, -1);
  EXPECT_EQ(idx.value(2), 2);
  EXPECT_EQ(idx.value(4), 1);
  EXPECT_EQ(idx.value(0), 0);
}

TEST(LoadIndex, TieBreakLatestAndEarliest) {
  // loads: 2 1 3 1 2 -> min 1 at positions 1 and 3.
  LoadIndex idx(5);
  const int loads[] = {2, 1, 3, 1, 2};
  for (size_t p = 0; p < 5; ++p) idx.add(p, loads[p]);
  EXPECT_EQ(idx.min_latest(0, 4).pos, 3u);
  EXPECT_EQ(idx.min_earliest(0, 4).pos, 1u);
  EXPECT_EQ(idx.min_latest(0, 4).load, 1);
  // Sub-ranges exclude one of the minima.
  EXPECT_EQ(idx.min_latest(0, 2).pos, 1u);
  EXPECT_EQ(idx.min_earliest(2, 4).pos, 3u);
  // Single-position range.
  EXPECT_EQ(idx.min_latest(2, 2).pos, 2u);
  EXPECT_EQ(idx.min_latest(2, 2).load, 3);
}

TEST(LoadIndex, PaddingLeavesNeverWin) {
  // Ring of 5 pads to 8 leaves; the padding must not leak into queries
  // that touch the last real position.
  LoadIndex idx(5);
  for (size_t p = 0; p < 5; ++p) idx.add(p, 9);
  const LoadIndex::MinResult r = idx.min_latest(3, 4);
  EXPECT_EQ(r.load, 9);
  EXPECT_EQ(r.pos, 4u);
}

TEST(LoadIndex, RandomDifferentialAgainstLinearScan) {
  Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t size = 1 + rng.uniform_index(33);
    LoadIndex idx(size);
    std::vector<int> ref(size, 0);
    for (int step = 0; step < 200; ++step) {
      const size_t pos = rng.uniform_index(size);
      const int delta = static_cast<int>(rng.uniform_index(5)) - 2;
      idx.add(pos, delta);
      ref[pos] += delta;
      size_t a = rng.uniform_index(size);
      size_t b = rng.uniform_index(size);
      if (a > b) std::swap(a, b);
      int want_min = ref[a];
      size_t want_latest = a;
      size_t want_earliest = a;
      for (size_t p = a; p <= b; ++p) {
        if (ref[p] <= want_min) {
          if (ref[p] < want_min) want_earliest = p;
          want_min = ref[p];
          want_latest = p;
        }
      }
      const LoadIndex::MinResult latest = idx.min_latest(a, b);
      const LoadIndex::MinResult earliest = idx.min_earliest(a, b);
      ASSERT_EQ(latest.load, want_min);
      ASSERT_EQ(latest.pos, want_latest);
      ASSERT_EQ(earliest.load, want_min);
      ASSERT_EQ(earliest.pos, want_earliest);
    }
  }
}

// --- SlotSchedule integration -------------------------------------------

TEST(SlotScheduleMinLoad, MatchesLoadsAndTieBreaksLatest) {
  SlotSchedule s(10, 6);
  // loads over slots 1..6: 1 0 2 0 1 0 -> min 0 at 2, 4, 6.
  s.add_instance(1, 1);
  s.add_instance(2, 3);
  s.add_instance(3, 3);
  s.add_instance(4, 5);
  const SlotSchedule::MinLoad latest = s.min_load_latest(1, 6);
  EXPECT_EQ(latest.slot, 6);
  EXPECT_EQ(latest.load, 0);
  const SlotSchedule::MinLoad earliest = s.min_load_earliest(1, 6);
  EXPECT_EQ(earliest.slot, 2);
  EXPECT_EQ(earliest.load, 0);
  EXPECT_EQ(s.min_load_latest(1, 5).slot, 4);
  EXPECT_EQ(s.min_load_latest(3, 3).slot, 3);
  EXPECT_EQ(s.min_load_latest(3, 3).load, 2);
}

TEST(SlotScheduleMinLoad, WraparoundAtRingBoundary) {
  // window 6 -> ring size 7. After 5 advances now=5, so the window
  // (5, 11] wraps the ring: slots 6 map to position 6 and 7..11 to 0..4.
  SlotSchedule s(10, 6);
  for (int i = 0; i < 5; ++i) s.advance();
  ASSERT_EQ(s.now(), 5);
  s.add_instance(1, 6);   // position 6
  s.add_instance(2, 8);   // position 1
  s.add_instance(3, 8);
  s.add_instance(4, 11);  // position 4
  // loads over slots 6..11: 1 0 2 0 0 1 -> min 0 at 7, 9, 10.
  const SlotSchedule::MinLoad latest = s.min_load_latest(6, 11);
  EXPECT_EQ(latest.slot, 10);
  EXPECT_EQ(latest.load, 0);
  const SlotSchedule::MinLoad earliest = s.min_load_earliest(6, 11);
  EXPECT_EQ(earliest.slot, 7);
  // Tie across the wrap seam: the late part must win for "latest" even
  // though its ring positions are numerically smaller.
  SlotSchedule t(10, 6);
  for (int i = 0; i < 5; ++i) t.advance();
  t.add_instance(1, 6);
  t.add_instance(2, 7);  // loads: 1 1 0 0 0 0 over 6..11
  EXPECT_EQ(t.min_load_latest(6, 11).slot, 11);
  EXPECT_EQ(t.min_load_earliest(6, 11).slot, 8);
  // All-equal loads across the seam: "latest" must take the last late
  // slot, "earliest" the pre-seam slot 6.
  t.add_instance(3, 8);
  t.add_instance(4, 9);
  t.add_instance(5, 10);
  t.add_instance(6, 11);  // loads: 1 1 1 1 1 1
  EXPECT_EQ(t.min_load_latest(6, 11).slot, 11);
  EXPECT_EQ(t.min_load_earliest(6, 11).slot, 6);
}

TEST(SlotScheduleMinLoad, AdvanceEvictsLoadsAndLatestCache) {
  SlotSchedule s(10, 6);
  s.add_instance(7, 2);
  s.add_instance(7, 5);  // two instances: latest cache must track back()
  EXPECT_EQ(s.latest_instance(7), 5);
  EXPECT_EQ(s.min_load_earliest(1, 6).slot, 1);

  std::span<const Segment> sent = s.advance();  // slot 1: nothing
  EXPECT_TRUE(sent.empty());
  sent = s.advance();  // slot 2: segment 7 transmits
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0], 7);
  EXPECT_EQ(s.latest_instance(7), 5);  // later instance still scheduled

  // The freed ring position must be clean for the new window slot 8.
  EXPECT_EQ(s.load(8), 0);
  EXPECT_EQ(s.min_load_latest(3, 8).slot, 8);

  for (int i = 0; i < 3; ++i) sent = s.advance();  // through slot 5
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(s.latest_instance(7), 0);  // evicted: cache reset
  EXPECT_FALSE(s.has_future_instance(7));
  EXPECT_EQ(s.total_scheduled(), 0);
}

TEST(SlotScheduleMinLoad, RandomDifferentialAcrossAdvances) {
  // Long random walk: instances + advances, checking every prefix window
  // (the ones admissions use) against a literal scan of load().
  Rng rng(77);
  SlotSchedule s(8, 9);
  for (int step = 0; step < 4000; ++step) {
    if (rng.uniform() < 0.3) {
      s.advance();
    } else {
      const Segment j = static_cast<Segment>(1 + rng.uniform_index(8));
      const Slot slot = s.now() + 1 + static_cast<Slot>(rng.uniform_index(9));
      s.add_instance(j, slot);
    }
    const Slot lo = s.now() + 1;
    for (Slot hi = lo; hi <= s.now() + 9; ++hi) {
      Slot want_latest = 0;
      Slot want_earliest = 0;
      int want_min = 0;
      for (Slot t = lo; t <= hi; ++t) {
        const int load = s.load(t);
        if (want_latest == 0 || load <= want_min) {
          if (want_earliest == 0 || load < want_min) want_earliest = t;
          want_latest = t;
          want_min = load;
        }
      }
      const SlotSchedule::MinLoad latest = s.min_load_latest(lo, hi);
      const SlotSchedule::MinLoad earliest = s.min_load_earliest(lo, hi);
      ASSERT_EQ(latest.slot, want_latest) << "step " << step << " hi " << hi;
      ASSERT_EQ(latest.load, want_min);
      ASSERT_EQ(earliest.slot, want_earliest);
      ASSERT_EQ(earliest.load, want_min);
    }
  }
}

}  // namespace
}  // namespace vod
