#include "sim/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace vod {

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::add_n(double x, uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) add(x);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void IntervalLoad::add(double start, double end) {
  const double a = std::max(start, lo_);
  const double b = std::min(end, hi_);
  if (b <= a) return;
  busy_ += b - a;
  events_.push_back({a, +1});
  events_.push_back({b, -1});
}

int IntervalLoad::peak() {
  std::sort(events_.begin(), events_.end());
  int active = 0;
  int most = 0;
  for (const auto& [time, delta] : events_) {
    active += delta;
    most = std::max(most, active);
  }
  return most;
}

Histogram::Histogram(double lo, double hi, size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      bins_(bins, 0) {
  VOD_CHECK(hi > lo);
  VOD_CHECK(bins > 0);
}

void Histogram::add(double x) { add_n(x, 1); }

size_t Histogram::add_n(double x, uint64_t n) {
  double idx = (x - lo_) / width_;
  size_t i = 0;
  if (idx >= static_cast<double>(bins_.size())) {
    i = bins_.size() - 1;
  } else if (idx > 0.0) {
    i = static_cast<size_t>(idx);
  }
  bins_[i] += n;
  total_ += n;
  return i;
}

double Histogram::quantile(double q) const {
  VOD_CHECK(q >= 0.0 && q <= 1.0);
  if (total_ == 0) return lo_;
  if (q == 0.0) {
    // The minimum sample's bin floor: with target = 0 the cumulative walk
    // below would stop at bin 0 even when it is empty.
    for (size_t i = 0; i < bins_.size(); ++i) {
      if (bins_[i] > 0) return lo_ + width_ * static_cast<double>(i);
    }
  }
  const double target = q * static_cast<double>(total_);
  double cum = 0.0;
  for (size_t i = 0; i < bins_.size(); ++i) {
    cum += static_cast<double>(bins_[i]);
    if (cum >= target) return lo_ + width_ * static_cast<double>(i + 1);
  }
  return hi_;
}

void Histogram::merge(const Histogram& other) {
  VOD_CHECK_MSG(lo_ == other.lo_ && hi_ == other.hi_ &&
                    bins_.size() == other.bins_.size(),
                "histogram merge requires identical (lo, hi, bins) specs");
  for (size_t i = 0; i < bins_.size(); ++i) bins_[i] += other.bins_[i];
  total_ += other.total_;
}

}  // namespace vod
