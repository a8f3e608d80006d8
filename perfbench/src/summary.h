// Order statistics for the benchmark's reports.
//
// A percentile is only reported when at least kMinTailSamples samples lie
// beyond it: a p99 read off 200 samples is the second-largest sample, and
// two runs of the same code disagree on it by whatever the one outlier was.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

inline constexpr size_t kMinTailSamples = 10;

// The q-quantile (0 < q < 1, nearest rank) of `samples`, or nullopt when
// fewer than kMinTailSamples samples lie strictly above its rank.
std::optional<double> tail_percentile(std::vector<double> samples, double q);

// tail_percentile, aborting the run with a message naming `what` when the
// sample is too small to carry the percentile.
double require_percentile(const std::vector<double>& samples, double q,
                          const char* what);

// Median (mean of the middle pair for even sizes); 0 for an empty input.
double median(std::vector<double> samples);

// First and third quartiles, interpolated like Python's
// statistics.quantiles(values, n=4) (the "exclusive" method).
struct Quartiles {
  double q1 = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> samples);

}  // namespace perfbench
