#include "util/interval_set.h"

#include <algorithm>

#include "util/check.h"

namespace vod {

void IntervalSet::add(double lo, double hi) {
  if (hi <= lo) return;
  // Find first interval whose hi >= lo (candidates for merging).
  auto first = std::lower_bound(
      intervals_.begin(), intervals_.end(), lo,
      [](const Interval& iv, double v) { return iv.hi < v; });
  // Extend over every interval that starts at or before hi.
  auto last = first;
  while (last != intervals_.end() && last->lo <= hi) {
    lo = std::min(lo, last->lo);
    hi = std::max(hi, last->hi);
    ++last;
  }
  if (first == last) {
    intervals_.insert(first, Interval{lo, hi});
  } else {
    first->lo = lo;
    first->hi = hi;
    intervals_.erase(first + 1, last);
  }
}

void IntervalSet::subtract(double lo, double hi) {
  if (hi <= lo) return;
  std::vector<Interval> out;
  out.reserve(intervals_.size() + 1);
  for (const Interval& iv : intervals_) {
    if (iv.hi <= lo || iv.lo >= hi) {
      out.push_back(iv);
      continue;
    }
    if (iv.lo < lo) out.push_back(Interval{iv.lo, lo});
    if (iv.hi > hi) out.push_back(Interval{hi, iv.hi});
  }
  intervals_ = std::move(out);
}

double IntervalSet::measure() const {
  double total = 0.0;
  for (const Interval& iv : intervals_) total += iv.length();
  return total;
}

}  // namespace vod
