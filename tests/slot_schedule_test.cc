#include "schedule/slot_schedule.h"

#include <span>

#include <gtest/gtest.h>

namespace vod {
namespace {

TEST(SlotSchedule, StartsEmptyAtSlotZero) {
  SlotSchedule s(10, 10);
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.total_scheduled(), 0);
  for (Slot t = 1; t <= 10; ++t) EXPECT_EQ(s.load(t), 0);
}

TEST(SlotSchedule, AddInstanceUpdatesLoadAndIndex) {
  SlotSchedule s(5, 5);
  s.add_instance(3, 2);
  EXPECT_EQ(s.load(2), 1);
  EXPECT_EQ(s.total_scheduled(), 1);
  EXPECT_TRUE(s.has_future_instance(3));
  EXPECT_FALSE(s.has_future_instance(2));
  ASSERT_EQ(s.instances_of(3).size(), 1u);
  EXPECT_EQ(s.instances_of(3)[0], 2);
}

TEST(SlotSchedule, FindInstanceRespectsRange) {
  SlotSchedule s(5, 5);
  s.add_instance(2, 3);
  EXPECT_EQ(s.find_instance(2, 5).value(), 3);
  EXPECT_EQ(s.find_instance(2, 3).value(), 3);
  EXPECT_FALSE(s.find_instance(2, 2).has_value());
  EXPECT_FALSE(s.find_instance(1, 5).has_value());
}

// With a second future instance, a window that ends before the latest one
// finds the earlier instance in the segment's row, and one that ends
// before both finds none.
TEST(SlotSchedule, FindInstanceReturnsLatest) {
  SlotSchedule s(5, 10);
  s.add_instance(2, 3);
  s.add_instance(2, 7);
  EXPECT_EQ(s.find_instance(2, 10).value(), 7);
  EXPECT_EQ(s.find_instance(2, 5).value(), 3);
  EXPECT_FALSE(s.find_instance(2, 2).has_value());
  s.advance();
  s.advance();
  s.advance();  // slot 3 transmits: only the instance in slot 7 is left
  EXPECT_FALSE(s.find_instance(2, 6).has_value());
  EXPECT_EQ(s.find_instance(2, 7).value(), 7);
}

TEST(SlotSchedule, AdvanceReturnsSlotContents) {
  SlotSchedule s(5, 5);
  s.add_instance(1, 1);
  s.add_instance(4, 1);
  s.add_instance(2, 2);
  const std::span<const Segment> slot1 = s.advance();
  EXPECT_EQ(s.now(), 1);
  ASSERT_EQ(slot1.size(), 2u);
  EXPECT_EQ(slot1[0], 1);
  EXPECT_EQ(slot1[1], 4);
  EXPECT_EQ(s.total_scheduled(), 1);
  const std::span<const Segment> slot2 = s.advance();
  ASSERT_EQ(slot2.size(), 1u);
  EXPECT_EQ(slot2[0], 2);
  EXPECT_TRUE(s.advance().empty());
}

TEST(SlotSchedule, AdvanceClearsPerSegmentIndex) {
  SlotSchedule s(5, 5);
  s.add_instance(3, 1);
  s.advance();
  EXPECT_FALSE(s.has_future_instance(3));
  EXPECT_TRUE(s.instances_of(3).empty());
}

TEST(SlotSchedule, RingReuseAfterManyAdvances) {
  SlotSchedule s(4, 4);
  for (int round = 0; round < 50; ++round) {
    s.add_instance(1, s.now() + 1);
    s.add_instance(4, s.now() + 4);
    const auto got = s.advance();
    if (round < 3) {
      // Only the S1 scheduled one round earlier; the first S4 lands in
      // slot 4.
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(got[0], 1);
    } else {
      // S1 scheduled last round plus the S4 scheduled 4 rounds ago.
      ASSERT_EQ(got.size(), 2u);
    }
  }
}

TEST(SlotSchedule, MultipleInstancesOfSameSegmentSorted) {
  SlotSchedule s(5, 10);
  s.add_instance(2, 7);
  s.add_instance(2, 3);
  s.add_instance(2, 9);
  const std::span<const Slot> v = s.instances_of(2);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 3);
  EXPECT_EQ(v[1], 7);
  EXPECT_EQ(v[2], 9);
}

TEST(SlotSchedule, LoadsAccumulate) {
  SlotSchedule s(5, 5);
  s.add_instance(1, 2);
  s.add_instance(2, 2);
  s.add_instance(3, 2);
  EXPECT_EQ(s.load(2), 3);
  s.advance();
  EXPECT_EQ(s.load(2), 3);  // still in the future
  s.advance();
  EXPECT_EQ(s.total_scheduled(), 0);
}

TEST(SlotScheduleDeath, RejectsOutOfWindow) {
  SlotSchedule s(5, 5);
  EXPECT_DEATH(s.add_instance(1, 0), "window");
  EXPECT_DEATH(s.add_instance(1, 6), "window");
  EXPECT_DEATH(s.add_instance(0, 2), "");
  EXPECT_DEATH(s.add_instance(6, 2), "");
}

// A schedule built without the placement index keeps the slabs and the
// naive scans; the index queries refuse to run.
TEST(SlotScheduleDeath, IndexQueriesNeedAnIndex) {
  SlotSchedule s(5, 5, /*placement_index=*/false);
  EXPECT_FALSE(s.has_placement_index());
  s.add_instance(1, 3);
  s.advance();
  s.advance();
  EXPECT_EQ(s.total_index_updates(), 0u);
  EXPECT_EQ(s.scan_min_load_latest(3, 6).slot, 6);
  EXPECT_DEATH(s.min_load_latest(3, 6), "without an index");
  EXPECT_DEATH(s.min_load_earliest(3, 6), "without an index");
}

}  // namespace
}  // namespace vod
