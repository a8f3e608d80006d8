// Wrap-seam property tests for the placement fast path.
//
// The ring wrap is where LoadIndex/SlotSchedule composition historically
// broke (DESIGN.md §9): a slot window (lo, hi] maps to at most two
// contiguous position ranges, and the tie-break has to prefer the *late*
// range even though its ring positions are numerically smaller. These
// tests sweep every small ring size exhaustively — every seam position,
// every (lo, hi) window — against the literal linear scan the paper's
// Figure 6 specifies. tests/load_index_test.cc covers
// the directed cases; this file is the exhaustive small-space property.
#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

#include "schedule/load_index.h"
#include "schedule/slot_schedule.h"
#include "sim/random.h"

namespace vod {
namespace {

// Reference scan over plain values: min over [a, b], ties latest/earliest.
std::pair<int, size_t> naive_min(const std::vector<int>& v, size_t a,
                                 size_t b, bool latest) {
  int best = v[a];
  size_t pos = a;
  for (size_t p = a; p <= b; ++p) {
    if (v[p] < best || (latest && v[p] == best)) {
      best = v[p];
      pos = p;
    }
  }
  return {best, pos};
}

TEST(LoadIndexWrap, ExhaustiveSmallRingsAgainstNaiveScan) {
  // Ring sizes 1..9 (1 and 2 hit the degenerate trees: a single leaf and
  // the smallest power-of-two padding). For each size, a randomized value
  // walk checking EVERY (a, b) range after every update — exhaustive in
  // the query space, randomized only in the values.
  for (size_t size = 1; size <= 9; ++size) {
    Rng rng(1000 + size);
    LoadIndex idx(size);
    std::vector<int> ref(size, 0);
    for (int step = 0; step < 60; ++step) {
      const size_t pos = rng.uniform_index(size);
      const int delta = static_cast<int>(rng.uniform_index(7)) - 3;
      idx.add(pos, delta);
      ref[pos] += delta;
      for (size_t a = 0; a < size; ++a) {
        for (size_t b = a; b < size; ++b) {
          const auto [want_min_l, want_pos_l] = naive_min(ref, a, b, true);
          const auto [want_min_e, want_pos_e] = naive_min(ref, a, b, false);
          const LoadIndex::MinResult latest = idx.min_latest(a, b);
          const LoadIndex::MinResult earliest = idx.min_earliest(a, b);
          ASSERT_EQ(latest.load, want_min_l)
              << "size " << size << " step " << step << " [" << a << ","
              << b << "]";
          ASSERT_EQ(latest.pos, want_pos_l);
          ASSERT_EQ(earliest.load, want_min_e);
          ASSERT_EQ(earliest.pos, want_pos_e);
        }
      }
    }
  }
}

// Reference for SlotSchedule: scan load() over slots [lo, hi].
SlotSchedule::MinLoad naive_window_min(const SlotSchedule& s, Slot lo,
                                       Slot hi, bool latest) {
  SlotSchedule::MinLoad out;
  for (Slot t = lo; t <= hi; ++t) {
    const int load = s.load(t);
    if (out.slot == 0 || load < out.load || (latest && load == out.load)) {
      out.slot = t;
      out.load = load;
    }
  }
  return out;
}

TEST(SlotScheduleWrap, SeamSweepEveryWindowEveryOffset) {
  // Windows 1..9 first. The slab layout rounds the ring up to a power of two
  // (2, 4, 8, 16 here — window 9 crosses into a 16-ring, exercising the
  // mask with real padding positions), so the sweep advances 0..2*ring of
  // the ACTUAL ring size to park the wrap seam at every offset. Then lay
  // down random instances and check every admissible (lo, hi) window
  // against the naive scan: the full cross product of (ring size) x (seam
  // position) x (query window). The batched raw-ring probes
  // (scan_min_load_latest / _earliest) are checked in the same sweep.
  // Wider windows run those probes' vectorized minimum over whole vectors
  // plus a scalar tail, on both sides of the seam; they park it at offsets
  // 0, 1, ring/2 and ring - 1 only.
  const int windows[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 33, 99, 127};
  for (const int window : windows) {
    int ring = 1;
    while (ring < window + 1) ring *= 2;
    std::vector<int> offsets = {0, 1, ring / 2, ring - 1};
    if (window <= 9) {
      offsets.clear();
      for (int advances = 0; advances <= 2 * ring; ++advances) {
        offsets.push_back(advances);
      }
    }
    for (const int advances : offsets) {
      Rng rng(77 * window + advances);
      SlotSchedule s(/*num_segments=*/window, window);
      for (int i = 0; i < advances; ++i) s.advance();
      ASSERT_EQ(s.now(), advances);

      // Random load pattern over the live window (now, now + window].
      const int placements = static_cast<int>(rng.uniform_index(
          static_cast<size_t>(2 * window) + 1));
      for (int i = 0; i < placements; ++i) {
        const Segment j =
            static_cast<Segment>(1 + rng.uniform_index(window));
        const Slot slot =
            s.now() + 1 + static_cast<Slot>(rng.uniform_index(window));
        s.add_instance(j, slot);
      }

      for (Slot lo = s.now() + 1; lo <= s.now() + window; ++lo) {
        for (Slot hi = lo; hi <= s.now() + window; ++hi) {
          const SlotSchedule::MinLoad want_l =
              naive_window_min(s, lo, hi, true);
          const SlotSchedule::MinLoad want_e =
              naive_window_min(s, lo, hi, false);
          const SlotSchedule::MinLoad got_l = s.min_load_latest(lo, hi);
          const SlotSchedule::MinLoad got_e = s.min_load_earliest(lo, hi);
          ASSERT_EQ(got_l.slot, want_l.slot)
              << "window " << window << " advances " << advances << " ["
              << lo << "," << hi << "]";
          ASSERT_EQ(got_l.load, want_l.load);
          ASSERT_EQ(got_e.slot, want_e.slot);
          ASSERT_EQ(got_e.load, want_e.load);

          const SlotSchedule::MinLoad scan_l = s.scan_min_load_latest(lo, hi);
          const SlotSchedule::MinLoad scan_e =
              s.scan_min_load_earliest(lo, hi);
          ASSERT_EQ(scan_l.slot, want_l.slot)
              << "raw scan, window " << window << " advances " << advances
              << " [" << lo << "," << hi << "]";
          ASSERT_EQ(scan_l.load, want_l.load);
          ASSERT_EQ(scan_e.slot, want_e.slot);
          ASSERT_EQ(scan_e.load, want_e.load);
        }
      }
    }
  }
}

TEST(SlotScheduleWrap, SeamTieAlwaysPrefersLateRange) {
  // Directed: all-equal loads across the seam for every window size. The
  // "latest" winner must be the numerically largest slot (late range,
  // small ring positions); "earliest" the smallest (pre-seam, large ring
  // positions). This is the exact composition rule that broke once. Both
  // the indexed range-min and the batched raw-ring scan must honor it.
  for (int window = 2; window <= 9; ++window) {
    SlotSchedule s(window, window);
    int ring = 1;
    while (ring < window + 1) ring *= 2;
    // Advance to now = ring - 2: the window's first slot lands on the last
    // ring position and everything after it wraps to positions 0.. — the
    // seam sits right after lo, so latest-vs-earliest must cross it.
    for (int i = 0; i < ring - 2; ++i) s.advance();
    for (int k = 1; k <= window; ++k) {
      s.add_instance(static_cast<Segment>(k), s.now() + k);
    }
    const Slot lo = s.now() + 1;
    const Slot hi = s.now() + window;
    EXPECT_EQ(s.min_load_latest(lo, hi).slot, hi) << "window " << window;
    EXPECT_EQ(s.min_load_earliest(lo, hi).slot, lo) << "window " << window;
    EXPECT_EQ(s.scan_min_load_latest(lo, hi).slot, hi) << "window " << window;
    EXPECT_EQ(s.scan_min_load_earliest(lo, hi).slot, lo)
        << "window " << window;
  }
}

TEST(SlotScheduleWrap, SlabRowsSurviveGrowthAcrossTheSeam) {
  // Slab invariant (DESIGN.md §14): a row-capacity re-layout while the
  // window straddles the wrap seam must preserve every ring row and every
  // per-segment row bit for bit. Overfill one wrapped slot far past the
  // initial row capacities and diff the views against a shadow model.
  SlotSchedule s(/*num_segments=*/24, /*window=*/9);  // ring 16
  for (int i = 0; i < 14; ++i) s.advance();  // seam inside (now, now+9]
  const Slot wrapped = s.now() + 6;          // maps past the seam
  const Slot pre_seam = s.now() + 1;
  std::vector<Segment> want_wrapped, want_pre;
  for (Segment j = 1; j <= 20; ++j) {
    s.add_instance(j, wrapped);
    want_wrapped.push_back(j);
    if (j <= 3) {
      s.add_instance(static_cast<Segment>(20 + j), pre_seam);
      want_pre.push_back(static_cast<Segment>(20 + j));
    }
  }
  EXPECT_GT(s.total_slab_grows(), 0u) << "test must actually force growth";
  const std::span<const Segment> got_wrapped = s.contents(wrapped);
  ASSERT_EQ(got_wrapped.size(), want_wrapped.size());
  for (size_t i = 0; i < want_wrapped.size(); ++i) {
    EXPECT_EQ(got_wrapped[i], want_wrapped[i]) << "wrapped row index " << i;
  }
  const std::span<const Segment> got_pre = s.contents(pre_seam);
  ASSERT_EQ(got_pre.size(), want_pre.size());
  for (size_t i = 0; i < want_pre.size(); ++i) {
    EXPECT_EQ(got_pre[i], want_pre[i]) << "pre-seam row index " << i;
  }
  EXPECT_EQ(s.load(wrapped), 20);
  EXPECT_EQ(s.min_load_latest(wrapped, wrapped).load, 20);
  // Per-segment rows and the latest cache survived the re-layouts too.
  for (Segment j = 1; j <= 20; ++j) {
    ASSERT_EQ(s.instances_of(j).size(), 1u);
    EXPECT_EQ(s.instances_of(j)[0], wrapped);
    EXPECT_EQ(s.latest_instance(j), wrapped);
  }
}

}  // namespace
}  // namespace vod
