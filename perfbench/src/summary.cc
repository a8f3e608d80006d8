#include "summary.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

std::optional<double> tail_percentile(std::vector<double> samples, double q) {
  if (samples.empty() || !(q > 0.0 && q < 1.0)) return std::nullopt;
  const size_t n = samples.size();
  // Nearest rank: the smallest sample with at least q*n samples at or
  // below it (1-based rank ceil(q*n)).
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  const size_t index = rank == 0 ? 0 : rank - 1;
  if (n - 1 - index < kMinTailSamples) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double require_percentile(const std::vector<double>& samples, double q,
                          const char* what) {
  const std::optional<double> p = tail_percentile(samples, q);
  if (!p) {
    std::fprintf(stderr,
                 "perfbench: refusing %s: %zu samples leave fewer than %zu "
                 "beyond the %.3g quantile\n",
                 what, samples.size(), kMinTailSamples, q);
    std::exit(2);
  }
  return *p;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Quartiles quartiles(std::vector<double> samples) {
  Quartiles out;
  const size_t n = samples.size();
  if (n == 0) return out;
  std::sort(samples.begin(), samples.end());
  if (n == 1) return {samples[0], samples[0]};
  // statistics.quantiles(method="exclusive"): position j*(n+1)/4, 1-based,
  // clamped to the sample range.
  auto at = [&](double pos) {
    pos = std::clamp(pos, 1.0, static_cast<double>(n));
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const double frac = pos - static_cast<double>(lo);
    if (lo >= n) return samples[n - 1];
    return samples[lo - 1] + frac * (samples[lo] - samples[lo - 1]);
  };
  out.q1 = at(static_cast<double>(n + 1) / 4.0);
  out.q3 = at(3.0 * static_cast<double>(n + 1) / 4.0);
  return out;
}

}  // namespace perfbench
