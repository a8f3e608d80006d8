#include "schedule/load_index.h"

#include <algorithm>

#include "util/check.h"

namespace vod {

LoadIndex::LoadIndex(size_t ring_size) : ring_size_(ring_size) {
  VOD_CHECK(ring_size >= 1);
  leaves_ = 1;
  while (leaves_ < ring_size_) leaves_ <<= 1;
  tree_.assign(2 * leaves_, 0);
  // Padding leaves (positions past the ring) must never win a min query.
  for (size_t p = ring_size_; p < leaves_; ++p) {
    tree_[leaves_ + p] = kInfiniteLoad;
  }
  for (size_t node = leaves_ - 1; node >= 1; --node) {
    tree_[node] = std::min(tree_[2 * node], tree_[2 * node + 1]);
  }
}

void LoadIndex::add(size_t pos, int delta) {
  VOD_DCHECK(pos < ring_size_);
  ++updates_;
  size_t node = leaves_ + pos;
  tree_[node] += delta;
  for (node >>= 1; node >= 1; node >>= 1) {
    tree_[node] = std::min(tree_[2 * node], tree_[2 * node + 1]);
  }
}

int LoadIndex::value(size_t pos) const {
  VOD_DCHECK(pos < ring_size_);
  return tree_[leaves_ + pos];
}

// Both argmin queries run the same shape: one iterative pass decomposes
// [a, b] into its canonical O(log W) cover, recording the visited nodes —
// left-edge nodes in `ln` (covering ascending position ranges, in
// collection order) and right-edge nodes in `rn` (descending) — while
// folding the range minimum. The winning subtree is then the first node
// holding the minimum when the cover is scanned in position order
// (descending for min_latest, ascending for min_earliest), and the descent
// to its extreme minimal leaf is branchless: each level selects the
// preferred child with a conditional subtract/add (`tree_[child] != m`
// compiles to setcc/cmov, not a per-level branch — the recursion the
// original implementation used is gone).
//
// A 64-entry node stack covers any ring (the tree height is bounded by the
// word size).

LoadIndex::MinResult LoadIndex::min_latest(size_t a, size_t b) const {
  VOD_DCHECK(a <= b && b < ring_size_);
  size_t ln[64];
  size_t rn[64];
  size_t lc = 0;
  size_t rc = 0;
  int m = kInfiniteLoad;
  for (size_t l = leaves_ + a, r = leaves_ + b + 1; l < r; l >>= 1, r >>= 1) {
    if ((l & 1) != 0) {
      m = std::min(m, tree_[l]);
      ln[lc++] = l++;
    }
    if ((r & 1) != 0) {
      --r;
      m = std::min(m, tree_[r]);
      rn[rc++] = r;
    }
  }
  // rn[0] covers the highest positions, then descending; ln reversed
  // continues the descent. The first node at the minimum owns the
  // rightmost minimal leaf.
  size_t node = 0;
  for (size_t i = 0; i < rc && node == 0; ++i) {
    if (tree_[rn[i]] == m) node = rn[i];
  }
  for (size_t i = lc; i > 0 && node == 0; --i) {
    if (tree_[ln[i - 1]] == m) node = ln[i - 1];
  }
  VOD_DCHECK(node != 0);
  while (node < leaves_) {
    const size_t right = 2 * node + 1;
    node = right - static_cast<size_t>(tree_[right] != m);
  }
  const size_t pos = node - leaves_;
  VOD_DCHECK(pos < ring_size_);
  return MinResult{m, pos};
}

LoadIndex::MinResult LoadIndex::min_earliest(size_t a, size_t b) const {
  VOD_DCHECK(a <= b && b < ring_size_);
  size_t ln[64];
  size_t rn[64];
  size_t lc = 0;
  size_t rc = 0;
  int m = kInfiniteLoad;
  for (size_t l = leaves_ + a, r = leaves_ + b + 1; l < r; l >>= 1, r >>= 1) {
    if ((l & 1) != 0) {
      m = std::min(m, tree_[l]);
      ln[lc++] = l++;
    }
    if ((r & 1) != 0) {
      --r;
      m = std::min(m, tree_[r]);
      rn[rc++] = r;
    }
  }
  // ln[0] covers the lowest positions, then ascending; rn reversed
  // continues upward. The first node at the minimum owns the leftmost
  // minimal leaf.
  size_t node = 0;
  for (size_t i = 0; i < lc && node == 0; ++i) {
    if (tree_[ln[i]] == m) node = ln[i];
  }
  for (size_t i = rc; i > 0 && node == 0; --i) {
    if (tree_[rn[i - 1]] == m) node = rn[i - 1];
  }
  VOD_DCHECK(node != 0);
  while (node < leaves_) {
    const size_t left = 2 * node;
    node = left + static_cast<size_t>(tree_[left] != m);
  }
  const size_t pos = node - leaves_;
  VOD_DCHECK(pos < ring_size_);
  return MinResult{m, pos};
}

}  // namespace vod
