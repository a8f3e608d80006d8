// Runtime companions to the vod-slab-span-escape static check
// (tools/vod_tidy/): each test pins down the concrete invalidation window
// one fixture pattern describes, what a stale slab view aliases after a
// re-layout or an advance. The check makes these windows compile-time
// findings; the tests prove the windows are real, and that the sanctioned
// idiom (re-derive the view after the mutation) is safe.
//
// A re-layout frees the old slab vector, so reading a view held across it
// is a heap-use-after-free, which ASan reports (the death test below). A
// view held across advance() reads a recycled ring row: live storage with
// a new tenant, which no sanitizer can see and only the static check
// catches (DESIGN.md §16).
#include <gtest/gtest.h>

#include <span>

#include "schedule/slot_schedule.h"
#include "schedule/types.h"

#if defined(__SANITIZE_ADDRESS__)
#define VOD_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define VOD_TEST_ASAN 1
#endif
#endif

namespace vod {
namespace {

// Fixture pattern: slab_span_escape_flagged.cc CoalescingMemo::replan — an
// add_instance() that doubles the row stride (grow_contents()) moves the
// contents slab, so a contents() span held across it no longer views the
// schedule, and the redrawn view does.
TEST(SlabLifetime, GrowRelocatesContentsSlab) {
  SlotSchedule sched(/*num_segments=*/8, /*window=*/3);
  // Fill slot 1's row to its initial stride (kInitialContentsCap == 4).
  for (Segment j = 1; j <= 4; ++j) sched.add_instance(j, 1);
  sched.add_instance(6, 2);
  const Segment* const before = sched.contents(1).data();
  ASSERT_EQ(sched.total_slab_grows(), 0u);

  sched.add_instance(5, 1);  // overflows the row: grow_contents() fires
  ASSERT_GE(sched.total_slab_grows(), 1u);

  // The re-derived views (the sanctioned idiom) see every row intact.
  const std::span<const Segment> fresh = sched.contents(1);
  EXPECT_NE(before, fresh.data())
      << "grow must re-lay the slab in fresh storage";
  ASSERT_EQ(fresh.size(), 5u);
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(fresh[i], static_cast<Segment>(i + 1));
  }
  const std::span<const Segment> other = sched.contents(2);
  ASSERT_EQ(other.size(), 1u);
  EXPECT_EQ(other[0], 6);
  EXPECT_TRUE(sched.contents(3).empty());
}

// Fixture pattern: slab_span_escape_flagged.cc use_after_advance — the
// span advance() returns views the vacated ring row, and the ring recycles
// that row for slot (s + ring_size): a later add_instance there rewrites
// the bytes under the held view.
TEST(SlabLifetime, AdvanceRecyclesRingRowUnderStaleView) {
  // window 3 => ring_size 4 (power of two >= window + 1), so slots 1 and 5
  // share ring position 1.
  SlotSchedule sched(/*num_segments=*/8, /*window=*/3);
  sched.add_instance(1, 1);
  const std::span<const Segment> stale = sched.advance();  // now == 1
  ASSERT_EQ(stale.size(), 1u);
  ASSERT_EQ(stale[0], 1);

  for (int i = 0; i < 3; ++i) (void)sched.advance();  // now == 4
  sched.add_instance(2, 5);  // slot 5 aliases slot 1's ring row

  // Same storage, new tenant: the stale view now reads slot 5's content.
  EXPECT_EQ(stale.data(), sched.contents(5).data());
  EXPECT_EQ(stale[0], 2) << "ring reuse rewrites bytes under a held view";
}

#ifdef VOD_TEST_ASAN
// The same pattern read for real: the re-layout freed the slab the held
// view points into, and ASan stops the read.
TEST(SlabLifetimeDeath, ContentsViewReadAfterGrowIsHeapUseAfterFree) {
  EXPECT_DEATH(
      {
        SlotSchedule sched(/*num_segments=*/8, /*window=*/3);
        for (Segment j = 1; j <= 4; ++j) sched.add_instance(j, 1);
        const std::span<const Segment> stale = sched.contents(1);
        sched.add_instance(5, 1);  // grow_contents() frees the old slab
        const volatile Segment read = stale[0];
        (void)read;
      },
      "heap-use-after-free");
}
#endif

}  // namespace
}  // namespace vod
