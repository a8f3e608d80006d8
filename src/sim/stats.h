// Streaming statistics accumulators.
//
// Welford's algorithm for numerically stable mean/variance, plus min/max,
// a fixed-bin histogram, and the interval load that measures the reactive
// protocols: their server bandwidth is a set of [start, end) streams, each
// one unit of b.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace vod {

class RunningStats {
 public:
  void add(double x);
  void add_n(double x, uint64_t n);

  uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 with fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(n_); }

  void merge(const RunningStats& other);
  void reset() { *this = RunningStats{}; }

 private:
  uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Load of a set of [start, end) intervals over the window [lo, hi): each
// open interval counts one. add() clips an interval to the window; mean()
// is the time-average load and peak() the most intervals open at once.
class IntervalLoad {
 public:
  IntervalLoad(double lo, double hi) : lo_(lo), hi_(hi) {}

  void add(double start, double end);

  // Busy time over the window length; 0 for an empty window.
  double mean() const { return hi_ > lo_ ? busy_ / (hi_ - lo_) : 0.0; }

  // Sweeps the recorded intervals in time order (sorting them in place). An
  // interval closes before another opens at the same time, so touching
  // intervals never overlap.
  int peak();

 private:
  double lo_, hi_;
  double busy_ = 0.0;
  std::vector<std::pair<double, int>> events_;  // (time, +1 open / -1 close)
};

// Fixed-width histogram over [lo, hi); out-of-range samples clamp into the
// edge bins. Used for bandwidth distribution plots and tail statistics.
class Histogram {
 public:
  Histogram(double lo, double hi, size_t bins);

  void add(double x);
  // Adds `n` samples of `x` and returns the bin they landed in.
  size_t add_n(double x, uint64_t n);
  uint64_t count() const { return total_; }
  // Smallest value v such that at least `q` fraction of samples are <= v
  // (bin upper edge; exact to bin resolution). Edge semantics are defined:
  // an empty histogram returns lo() for every q; q = 0.0 returns the lower
  // edge of the first occupied bin (the minimum sample's bin floor);
  // q = 1.0 returns the upper edge of the last occupied bin.
  double quantile(double q) const;
  const std::vector<uint64_t>& bins() const { return bins_; }
  double bin_width() const { return width_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }

  // Adds another histogram's counts bin by bin. Both histograms must share
  // the exact (lo, hi, bins) spec — this is the merge point for per-thread
  // metric shards.
  void merge(const Histogram& other);

 private:
  double lo_, hi_, width_;
  std::vector<uint64_t> bins_;
  uint64_t total_ = 0;
};

}  // namespace vod
