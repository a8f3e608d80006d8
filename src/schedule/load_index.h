// Range-min placement index over the slot ring.
//
// LoadIndex is the fast-path data structure behind SlotSchedule's
// min-load placement queries: a segment tree over the per-slot load
// counters of the scheduling ring, answering "which slot in [a, b] has
// the minimum load, ties broken toward the latest (or earliest)
// position" in O(log W) instead of the naive O(W) window scan of the
// paper's Figure 6 — without changing a single scheduling decision
// (the tie-break rules reproduce the linear scans bit for bit; the
// differential fuzzer in tests/fuzz_schedule_audit.cc is the oracle).
//
// The index speaks *ring positions*, not slots: SlotSchedule maps a slot
// window (lo, hi] onto at most two contiguous position ranges (the ring
// wraps at most once because every window is narrower than the ring) and
// composes the per-range results. The leaves hold the ring's real load
// counters: SlotSchedule adds +1 per placed instance and removes a slot's
// whole load when the clock vacates it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vod {

class LoadIndex {
 public:
  // Sentinel for "no position": also the value padding leaves hold so the
  // power-of-two tree never lets them win a min query.
  static constexpr int kInfiniteLoad = 2147483647;  // INT_MAX

  explicit LoadIndex(size_t ring_size);

  // Adds `delta` to the value at ring position `pos` (pos < ring_size).
  void add(size_t pos, int delta);

  // Current value at ring position `pos`.
  int value(size_t pos) const;

  struct MinResult {
    int load = kInfiniteLoad;
    size_t pos = 0;
  };

  // Minimum value over the contiguous position range [a, b]
  // (a <= b < ring_size), with the argmin tie broken toward the highest
  // position (min_latest) or the lowest (min_earliest). O(log ring_size),
  // fully iterative: one canonical-cover pass finds the minimum and the
  // winning subtree, then a branchless child-select descent (conditional
  // subtract, no per-level branches) pins the extreme minimal leaf.
  MinResult min_latest(size_t a, size_t b) const;
  MinResult min_earliest(size_t a, size_t b) const;

  // Lifetime operation accounting for the observability layer: point
  // updates applied. Exported by the scheduler as
  // schedule_index_updates_total; never read on a decision path.
  uint64_t total_updates() const { return updates_; }

 private:
  size_t ring_size_;
  size_t leaves_;          // smallest power of two >= ring_size_
  std::vector<int> tree_;  // 1-based heap layout; leaf p at leaves_ + p
  uint64_t updates_ = 0;
};

}  // namespace vod
