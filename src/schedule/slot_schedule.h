// The server-side slotted transmission schedule.
//
// SlotSchedule tracks, for a bounded look-ahead window, which segment
// instances are scheduled in which future slot. It is the state the DHB
// scheduler (core/dhb.h) manipulates, but is protocol-agnostic: it only
// knows about slots, per-slot load counts, and per-segment future
// instances.
//
// Capacity: the window covers slots (now, now + window]; window must be at
// least the largest scheduling horizon any caller uses (for DHB that is
// max_j T[j] <= n).
//
// Memory layout (DESIGN.md §14). All state lives in flat
// structure-of-arrays slabs, one std::vector each, not in nested vectors:
//   * the per-slot ring — load counters and slot contents — is sized to a
//     power of two (>= window + 1), so the slot → ring-position map is a
//     mask, not a division;
//   * contents is ONE contiguous Segment slab of ring_size × capacity,
//     row r at [r * capacity, r * capacity + contents_len[r]);
//   * the per-segment instance index is one contiguous Slot slab with the
//     same stride scheme (rows almost always hold 0 or 1 entries — the §3
//     sharing invariant), plus a flat latest-instance array;
//   * a slab that outgrows its row capacity is re-laid-out at double the
//     stride in a fresh vector (the old one is freed, and growth stops
//     once capacities plateau; the slab-grow meter feeds the steady-state
//     allocation audit).
// Accessors that used to return vectors return std::spans over the slabs,
// valid until the next mutating call.
//
// Placement fast path. Beyond the per-slot counters, the schedule keeps
// two derived structures maintained incrementally by add_instance() /
// advance():
//   * an optional range-min placement index (schedule/load_index.h) over
//     the load ring, answering min_load_latest() / min_load_earliest() —
//     the Figure 6 "min load, ties to the latest slot" rule — in
//     O(log W). It exists only when the schedule is built with
//     `placement_index` set: DhbScheduler asks for it exactly when its
//     admissions query it (DhbScheduler::placement_index_active()), so a
//     video below the index cutover neither allocates nor maintains one;
//   * an O(1) latest-instance cache per segment (latest_instance()), the
//     common-case answer to the sharing probe without touching the
//     per-segment slot rows.
// Both are exact: they reproduce the naive window scans bit for bit (the
// differential fuzzer is the oracle). The naive scans themselves are
// served by scan_min_load_latest() / scan_min_load_earliest(): the same
// Figure 6 answer, batched over the contiguous load ring — a window
// decomposes into at most two raw ranges, reduced to their minimum
// without a branch per slot and then searched for the latest (earliest)
// slot holding it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "schedule/load_index.h"
#include "schedule/types.h"
#include "util/check.h"
#include "util/lifetime.h"

namespace vod {

class SlotSchedule {
 public:
  // num_segments: segments are 1..num_segments. window: look-ahead depth.
  // placement_index: build and maintain the range-min placement index
  // (without it, the index queries fail a VOD_CHECK).
  SlotSchedule(int num_segments, int window, bool placement_index = true);

  Slot now() const { return now_; }
  int window() const { return window_; }
  int num_segments() const { return num_segments_; }

  // Number of instances scheduled in slot s; s must lie in (now, now+window].
  int load(Slot s) const;

  // Latest scheduled instance of segment j in (now, hi], if any: the
  // sharing probe of an admission window. Requires now < hi <= now + window
  // (callers clamp hi). Every live instance lies in the future, so the
  // latest-instance cache answers in O(1), inline, unless segment j holds a
  // second future instance past hi (after a clamped or capped admission).
  std::optional<Slot> find_instance(Segment j, Slot hi) const {
    VOD_DCHECK(j >= 1 && j <= num_segments_);
    const Slot latest = latest_[static_cast<size_t>(j)];
    if (latest == 0) return std::nullopt;
    if (latest <= hi) return latest;
    return find_earlier_instance(j, hi);
  }

  // True when segment j has at least one scheduled instance in the window.
  bool has_future_instance(Segment j) const;

  // Latest scheduled future slot of segment j, or 0 when none — an O(1)
  // cache over instances_of(j).back(). Because every live instance lies in
  // the future (> now), a latest instance <= hi answers the whole sharing
  // probe for a window (now, hi].
  Slot latest_instance(Segment j) const;

  // All scheduled future slots of segment j, ascending. Under uncapped DHB
  // this has at most one element (the paper's sharing invariant); the
  // client-bandwidth-capped variant may create more. The span views the
  // per-segment slab: valid until the next mutating call.
  std::span<const Slot> instances_of(Segment j) const VOD_LIFETIMEBOUND;

  // The segment instances scheduled in slot s (insertion order); s must lie
  // in (now, now+window]. Lets auditors cross-check the per-slot ring
  // against the per-segment index without advancing the clock. Slab view:
  // valid until the next mutating call.
  std::span<const Segment> contents(Slot s) const VOD_LIFETIMEBOUND;

  // Schedules one instance of segment j in slot s (now < s <= now+window).
  void add_instance(Segment j, Slot s);

  // Advances the clock by one slot and returns the segments transmitted
  // during the new current slot (its content is final: no request arriving
  // from now on may schedule into it). The span views the vacated ring
  // row: valid until the next mutating call. On an empty schedule only the
  // clock moves, so an idle step is O(1) and, being inline, costs the
  // caller no call.
  std::span<const Segment> advance() VOD_LIFETIMEBOUND {
    ++now_;
    if (total_ == 0) return {};  // every ring row is already clear
    return vacate_current_row();
  }

  // Moves the clock of an EMPTY schedule to slot `s`, which must not be
  // behind now(): what s - now() advance() calls would do, in O(1). With
  // nothing scheduled every ring row is already clear and every index
  // leaf already 0, so only the clock moves.
  void advance_to(Slot s) {
    VOD_CHECK_MSG(total_ == 0, "advance_to on a non-empty schedule");
    VOD_CHECK_MSG(s >= now_, "advance_to behind the clock");
    now_ = s;
  }

  // Total instances currently scheduled in the window.
  int total_scheduled() const { return total_; }

  // --- Range-min placement queries (O(log window)) ---------------------

  struct MinLoad {
    Slot slot = 0;
    int load = 0;
  };

  // True when the schedule keeps the range-min placement index.
  bool has_placement_index() const { return index_.has_value(); }

  // Slot of minimum load in [lo, hi], ties broken toward the latest /
  // earliest slot — exactly the linear hi→lo / lo→hi scans of Figure 6.
  // Requires now < lo <= hi <= now + window and an index.
  MinLoad min_load_latest(Slot lo, Slot hi) const;
  MinLoad min_load_earliest(Slot lo, Slot hi) const;

  // --- Batched window probes (O(width), naive reference path) ----------

  // The Figure 6 scans without the index, answered by probing the
  // contiguous load ring directly: the window maps to at most two raw
  // ranges, whose minimum a branch-free reduction finds (GCC vectorizes it
  // at -O3 without -march); a search from the hi (lo) end then returns the
  // first slot holding it. Decision-identical to min_load_latest /
  // min_load_earliest — the naive reference path the differential fuzzer
  // cross-checks, and the placement path of videos below the index cutover
  // (DhbConfig::placement_index_cutover).
  MinLoad scan_min_load_latest(Slot lo, Slot hi) const;
  MinLoad scan_min_load_earliest(Slot lo, Slot hi) const;

  // --- Lifetime operation accounting (observability) -------------------
  // Raw structural-op counts the scheduler exports as schedule_* metrics
  // (the clock, now(), counts the advances). Monotone over the schedule's
  // lifetime; never read on a decision path. The index counter reads 0 on
  // a schedule without an index.
  uint64_t total_instances_added() const { return instances_added_; }
  uint64_t total_index_updates() const {
    return index_ ? index_->total_updates() : 0;
  }
  // Slab re-layouts (row capacity doublings) since construction: flat
  // across a steady-state slot (tests/alloc_audit_test.cc).
  uint64_t total_slab_grows() const { return slab_grows_; }

 private:
  // Test-only backdoor (tests/schedule_auditor_test.cc) used to inject
  // corruptions and prove the ScheduleAuditor non-vacuous.
  friend struct SlotScheduleTestPeer;

  size_t ring_index(Slot s) const {
    return static_cast<size_t>(s) & ring_mask_;
  }

  Segment* contents_row(size_t pos) VOD_LIFETIMEBOUND {
    return contents_slab_.data() + pos * contents_cap_;
  }
  const Segment* contents_row(size_t pos) const VOD_LIFETIMEBOUND {
    return contents_slab_.data() + pos * contents_cap_;
  }
  Slot* seg_row(size_t j) VOD_LIFETIMEBOUND {
    return seg_slab_.data() + j * seg_cap_;
  }
  const Slot* seg_row(size_t j) const VOD_LIFETIMEBOUND {
    return seg_slab_.data() + j * seg_cap_;
  }

  // Doubles the row stride of the respective slab and re-lays it out in a
  // fresh vector, freeing the old one (see the layout note).
  void grow_contents();
  void grow_segments();

  // find_instance() when segment j's latest instance lies past hi: the
  // latest earlier entry of its row that is <= hi.
  std::optional<Slot> find_earlier_instance(Segment j, Slot hi) const;

  // advance() on a non-empty schedule: empties the new current slot's ring
  // row and drops its instances from their segment rows.
  std::span<const Segment> vacate_current_row() VOD_LIFETIMEBOUND;

  int num_segments_;
  int window_;
  Slot now_ = 0;
  int total_ = 0;

  size_t ring_size_;  // power of two >= window + 1
  size_t ring_mask_;  // ring_size_ - 1

  std::vector<int> loads_;              // [ring_size_] instances per slot
  std::vector<Segment> contents_slab_;  // [ring_size_ * contents_cap_]
  std::vector<int> contents_len_;       // [ring_size_] row fill
  size_t contents_cap_;                 // contents row stride

  std::vector<Slot> seg_slab_;  // [(num_segments_+1) * seg_cap_], rows asc
  std::vector<int> seg_len_;    // [num_segments_+1] row fill
  size_t seg_cap_;              // per-segment row stride
  std::vector<Slot> latest_;    // [num_segments_+1] latest slot, 0 none

  std::optional<LoadIndex> index_;  // range-min over loads_
  uint64_t instances_added_ = 0;    // lifetime op meters
  uint64_t slab_grows_ = 0;
};

}  // namespace vod
