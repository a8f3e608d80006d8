#include "protocols/selective_catching.h"

#include <cmath>

#include "sim/random.h"
#include "sim/stats.h"
#include "util/check.h"

namespace vod {

double selective_catching_expected_bandwidth(double lambda,
                                             double duration_s,
                                             int broadcast_channels) {
  VOD_CHECK(broadcast_channels >= 1);
  const double segments =
      static_cast<double>((1 << broadcast_channels) - 1);
  const double d = duration_s / segments;
  return static_cast<double>(broadcast_channels) + lambda * d / 2.0;
}

int selective_catching_optimal_channels(double lambda, double duration_s) {
  int best_k = 1;
  double best = selective_catching_expected_bandwidth(lambda, duration_s, 1);
  for (int k = 2; k <= 20; ++k) {
    const double b =
        selective_catching_expected_bandwidth(lambda, duration_s, k);
    if (b < best) {
      best = b;
      best_k = k;
    }
  }
  return best_k;
}

SelectiveCatchingResult run_selective_catching_simulation(
    const SelectiveCatchingConfig& config) {
  PoissonProcess arrivals(per_hour(config.requests_per_hour),
                          Rng(config.seed));
  return run_selective_catching_simulation(config, arrivals);
}

SelectiveCatchingResult run_selective_catching_simulation(
    const SelectiveCatchingConfig& config, ArrivalProcess& arrivals) {
  const double D = config.video_duration_s;
  VOD_CHECK(D > 0.0);
  const int k = config.broadcast_channels > 0
                    ? config.broadcast_channels
                    : selective_catching_optimal_channels(
                          per_hour(config.requests_per_hour), D);
  const double segments = static_cast<double>((1 << k) - 1);
  const double d = D / segments;
  const double w_lo = config.warmup_hours * 3600.0;
  const double w_hi = w_lo + config.measured_hours * 3600.0;

  SelectiveCatchingResult result;
  result.broadcast_channels = k;

  // The k broadcast channels are always on; catching streams carry, for a
  // client arriving at wall time t, the elapsed part of the current S_1
  // slot: content [0, t mod d), transmitted just-in-time over [t, t + off).
  IntervalLoad catching(w_lo, w_hi);
  double t = arrivals.next();
  while (t < w_hi) {
    catching.add(t, t + std::fmod(t, d));
    if (t >= w_lo) ++result.requests;
    t = arrivals.next();
  }

  result.avg_streams = static_cast<double>(k) + catching.mean();
  result.max_streams = static_cast<double>(k + catching.peak());
  return result;
}

}  // namespace vod
