// A set of disjoint half-open intervals [lo, hi) over doubles.
//
// Used by the reactive protocols (stream tapping, patching) to compute which
// parts of a video a new client can "tap" from streams that are already live:
// the client's own stream only has to carry the complement of the covered
// set. Intervals are kept sorted, disjoint and coalesced.
#pragma once

#include <vector>

namespace vod {

struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  double length() const { return hi - lo; }
  bool empty() const { return hi <= lo; }
  friend bool operator==(const Interval&, const Interval&) = default;
};

class IntervalSet {
 public:
  IntervalSet() = default;

  // Adds [lo, hi), merging with any overlapping or adjacent intervals.
  // Empty or inverted ranges are ignored.
  void add(double lo, double hi);

  // Removes [lo, hi) from the set (set difference).
  void subtract(double lo, double hi);

  // Total measure of the set.
  double measure() const;

  bool empty() const { return intervals_.empty(); }
  const std::vector<Interval>& intervals() const { return intervals_; }

 private:
  std::vector<Interval> intervals_;  // sorted by lo, pairwise disjoint
};

}  // namespace vod
