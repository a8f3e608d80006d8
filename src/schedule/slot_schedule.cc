#include "schedule/slot_schedule.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "util/check.h"

namespace vod {
namespace {

// Initial slab row strides. Contents rows hold the instances of one slot
// (about total/window on average — small); per-segment rows hold a
// segment's future instances (0 or 1 under the §3 sharing invariant).
// Outgrowing rows re-lay the slab at double stride, so these only set
// where the doubling starts.
constexpr size_t kInitialContentsCap = 4;
constexpr size_t kInitialSegCap = 2;

size_t ring_pow2(int window) {
  size_t size = 1;
  while (size < static_cast<size_t>(window) + 1) size <<= 1;
  return size;
}

// Minimum of `m` and the loads in [first, last): a select per element and
// no early exit, so GCC vectorizes it at -O3 with plain SSE2 (a compare
// and a blend per vector), no intrinsics and no -march.
int fold_min(const int* first, const int* last, int m) {
  for (; first != last; ++first) m = std::min(m, *first);
  return m;
}

}  // namespace

SlotSchedule::SlotSchedule(int num_segments, int window, bool placement_index)
    : num_segments_(num_segments),
      window_(window),
      ring_size_(ring_pow2(window)),
      ring_mask_(ring_size_ - 1),
      contents_cap_(kInitialContentsCap),
      seg_cap_(kInitialSegCap) {
  VOD_CHECK(num_segments >= 1);
  VOD_CHECK(window >= 1);
  if (placement_index) index_.emplace(ring_size_);
  const size_t segs = static_cast<size_t>(num_segments) + 1;
  loads_.resize(ring_size_);
  contents_slab_.resize(ring_size_ * contents_cap_);
  contents_len_.resize(ring_size_);
  seg_slab_.resize(segs * seg_cap_);
  seg_len_.resize(segs);
  latest_.resize(segs);
}

void SlotSchedule::grow_contents() {
  const size_t new_cap = contents_cap_ * 2;
  std::vector<Segment> slab(ring_size_ * new_cap);
  for (size_t r = 0; r < ring_size_; ++r) {
    std::copy_n(contents_row(r), contents_len_[r], slab.data() + r * new_cap);
  }
  contents_slab_ = std::move(slab);
  contents_cap_ = new_cap;
  ++slab_grows_;
}

void SlotSchedule::grow_segments() {
  const size_t new_cap = seg_cap_ * 2;
  std::vector<Slot> slab(seg_len_.size() * new_cap);
  for (size_t j = 0; j < seg_len_.size(); ++j) {
    std::copy_n(seg_row(j), seg_len_[j], slab.data() + j * new_cap);
  }
  seg_slab_ = std::move(slab);
  seg_cap_ = new_cap;
  ++slab_grows_;
}

int SlotSchedule::load(Slot s) const {
  VOD_DCHECK(s > now_ && s <= now_ + window_);
  return loads_[ring_index(s)];
}

std::optional<Slot> SlotSchedule::find_earlier_instance(Segment j,
                                                        Slot hi) const {
  // The row is ascending and its last entry (the latest instance) is past
  // hi; rows are short (almost always 0 or 1 entries). Every entry is
  // > now, so the first one <= hi from the back is the answer.
  const Slot* row = seg_row(static_cast<size_t>(j));
  for (int i = seg_len_[static_cast<size_t>(j)] - 1; i-- > 0;) {
    if (row[i] <= hi) return row[i];
  }
  return std::nullopt;
}

bool SlotSchedule::has_future_instance(Segment j) const {
  VOD_DCHECK(j >= 1 && j <= num_segments_);
  return latest_[static_cast<size_t>(j)] != 0;
}

Slot SlotSchedule::latest_instance(Segment j) const {
  VOD_DCHECK(j >= 1 && j <= num_segments_);
  return latest_[static_cast<size_t>(j)];
}

std::span<const Slot> SlotSchedule::instances_of(Segment j) const {
  VOD_DCHECK(j >= 1 && j <= num_segments_);
  return {seg_row(static_cast<size_t>(j)),
          static_cast<size_t>(seg_len_[static_cast<size_t>(j)])};
}

std::span<const Segment> SlotSchedule::contents(Slot s) const {
  VOD_DCHECK(s > now_ && s <= now_ + window_);
  const size_t pos = ring_index(s);
  return {contents_row(pos), static_cast<size_t>(contents_len_[pos])};
}

void SlotSchedule::add_instance(Segment j, Slot s) {
  VOD_CHECK(j >= 1 && j <= num_segments_);
  VOD_CHECK_MSG(s > now_ && s <= now_ + window_,
                "instance outside the scheduling window");
  const size_t pos = ring_index(s);
  ++loads_[pos];
  ++total_;
  ++instances_added_;
  if (index_) index_->add(pos, 1);

  if (static_cast<size_t>(contents_len_[pos]) == contents_cap_) {
    grow_contents();
  }
  contents_row(pos)[contents_len_[pos]++] = j;

  const size_t sj = static_cast<size_t>(j);
  if (static_cast<size_t>(seg_len_[sj]) == seg_cap_) grow_segments();
  Slot* row = seg_row(sj);
  int i = seg_len_[sj]++;
  // Sorted insert from the back; rows are tiny.
  for (; i > 0 && row[i - 1] > s; --i) row[i] = row[i - 1];
  row[i] = s;
  latest_[sj] = std::max(latest_[sj], s);
}

std::span<const Segment> SlotSchedule::vacate_current_row() {
  const size_t pos = ring_index(now_);
  Segment* row = contents_row(pos);
  const int len = contents_len_[pos];
  contents_len_[pos] = 0;
  total_ -= loads_[pos];
  if (index_ && loads_[pos] != 0) index_->add(pos, -loads_[pos]);
  loads_[pos] = 0;
  for (int i = 0; i < len; ++i) {
    const size_t sj = static_cast<size_t>(row[i]);
    // Every live instance is > now_ - 1, so this segment's transmitted
    // instance sits at the front of its (ascending) row.
    Slot* seg = seg_row(sj);
    VOD_DCHECK(seg_len_[sj] > 0 && seg[0] == now_);
    const int remaining = --seg_len_[sj];
    std::memmove(seg, seg + 1,
                 static_cast<size_t>(remaining) * sizeof(Slot));
    latest_[sj] = remaining == 0 ? 0 : seg[remaining - 1];
  }
  return {row, static_cast<size_t>(len)};
}

SlotSchedule::MinLoad SlotSchedule::min_load_latest(Slot lo, Slot hi) const {
  VOD_DCHECK(lo > now_ && lo <= hi && hi <= now_ + window_);
  VOD_CHECK_MSG(index_, "placement query on a schedule without an index");
  const LoadIndex& index = *index_;
  const size_t a = ring_index(lo);
  const size_t b = ring_index(hi);
  if (a <= b) {
    const LoadIndex::MinResult r = index.min_latest(a, b);
    return MinLoad{lo + static_cast<Slot>(r.pos - a), r.load};
  }
  // The window wraps the ring once: [lo..] maps to [a, size) ("early" slots)
  // and [..hi] maps to [0, b] ("late" slots). On a load tie the late part
  // wins — its slots are all later than every early slot.
  const LoadIndex::MinResult early = index.min_latest(a, ring_size_ - 1);
  const LoadIndex::MinResult late = index.min_latest(0, b);
  if (late.load <= early.load) {
    return MinLoad{hi - static_cast<Slot>(b - late.pos), late.load};
  }
  return MinLoad{lo + static_cast<Slot>(early.pos - a), early.load};
}

SlotSchedule::MinLoad SlotSchedule::min_load_earliest(Slot lo, Slot hi) const {
  VOD_DCHECK(lo > now_ && lo <= hi && hi <= now_ + window_);
  VOD_CHECK_MSG(index_, "placement query on a schedule without an index");
  const LoadIndex& index = *index_;
  const size_t a = ring_index(lo);
  const size_t b = ring_index(hi);
  if (a <= b) {
    const LoadIndex::MinResult r = index.min_earliest(a, b);
    return MinLoad{lo + static_cast<Slot>(r.pos - a), r.load};
  }
  const LoadIndex::MinResult early = index.min_earliest(a, ring_size_ - 1);
  const LoadIndex::MinResult late = index.min_earliest(0, b);
  if (early.load <= late.load) {
    return MinLoad{lo + static_cast<Slot>(early.pos - a), early.load};
  }
  return MinLoad{hi - static_cast<Slot>(b - late.pos), late.load};
}

// The window's ring positions are [a, early_end) for its first slots and,
// when it wraps the ring, [0, b] for its last ones. Both scans reduce the
// window to its minimum load first, then search for the slot holding it
// from the latest (earliest) end: the slot the strict-improvement hi→lo
// (lo→hi) scan of Figure 6 returns.
SlotSchedule::MinLoad SlotSchedule::scan_min_load_latest(Slot lo,
                                                         Slot hi) const {
  VOD_DCHECK(lo > now_ && lo <= hi && hi <= now_ + window_);
  const size_t a = ring_index(lo);
  const size_t b = ring_index(hi);
  const bool wraps = a > b;
  const size_t early_end = wraps ? ring_size_ : b + 1;
  const int* loads = loads_.data();
  int m = fold_min(loads + a, loads + early_end,
                   std::numeric_limits<int>::max());
  if (wraps) {
    m = fold_min(loads, loads + b + 1, m);
    for (size_t p = b + 1; p-- > 0;) {
      if (loads[p] == m) return MinLoad{hi - static_cast<Slot>(b - p), m};
    }
  }
  size_t p = early_end - 1;
  while (loads[p] != m) --p;
  return MinLoad{lo + static_cast<Slot>(p - a), m};
}

SlotSchedule::MinLoad SlotSchedule::scan_min_load_earliest(Slot lo,
                                                           Slot hi) const {
  VOD_DCHECK(lo > now_ && lo <= hi && hi <= now_ + window_);
  const size_t a = ring_index(lo);
  const size_t b = ring_index(hi);
  const bool wraps = a > b;
  const size_t early_end = wraps ? ring_size_ : b + 1;
  const int* loads = loads_.data();
  int m = fold_min(loads + a, loads + early_end,
                   std::numeric_limits<int>::max());
  if (wraps) m = fold_min(loads, loads + b + 1, m);
  for (size_t p = a; p < early_end; ++p) {
    if (loads[p] == m) return MinLoad{lo + static_cast<Slot>(p - a), m};
  }
  size_t p = 0;
  while (loads[p] != m) ++p;
  return MinLoad{hi - static_cast<Slot>(b - p), m};
}

}  // namespace vod
