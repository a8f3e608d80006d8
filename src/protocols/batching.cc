#include "protocols/batching.h"

#include <algorithm>
#include <cmath>

#include "obs/qoe.h"
#include "sim/random.h"
#include "sim/stats.h"
#include "util/check.h"

namespace vod {

double batching_expected_bandwidth(const BatchingConfig& config) {
  const double lambda = per_hour(config.requests_per_hour);
  const double beta = config.batch_interval_s;
  return config.video_duration_s / beta * (1.0 - std::exp(-lambda * beta));
}

BatchingResult run_batching_simulation(const BatchingConfig& config) {
  PoissonProcess arrivals(per_hour(config.requests_per_hour), Rng(config.seed));
  return run_batching_simulation(config, arrivals);
}

BatchingResult run_batching_simulation(const BatchingConfig& config,
                                       ArrivalProcess& arrivals) {
  const double beta = config.batch_interval_s;
  const double D = config.video_duration_s;
  VOD_CHECK(beta > 0.0 && D > 0.0);
  const double w_lo = config.warmup_hours * 3600.0;
  const double w_hi = w_lo + config.measured_hours * 3600.0;

  BatchingResult result;
  IntervalLoad load(w_lo, w_hi);

  // Walk batch boundaries; a stream starts at boundary k*beta iff at least
  // one request arrived during ((k-1)*beta, k*beta].
  double t = arrivals.next();
  double boundary = std::ceil(t / beta) * beta;
  while (boundary < w_hi) {
    bool any = false;
    while (t <= boundary) {
      any = true;
      if (t >= w_lo) {
        ++result.requests;
        if (obs::QoeShard* qoe = obs::current_qoe()) {
          // Batching is the one reactive scheme with a real startup wait:
          // the client holds until the next boundary. Wait is recorded in
          // batch-interval units ((boundary - t)/beta in [0, 1)) with the
          // interval index as the sample slot, so the histogram reads as
          // "fraction of an interval waited" whatever beta is.
          qoe->record_admission(1, static_cast<int64_t>(t / beta),
                                (boundary - t) / beta, 0, 1);
        }
      }
      t = arrivals.next();
    }
    if (any) {
      load.add(boundary, boundary + D);
      if (boundary >= w_lo) ++result.streams_started;
    }
    // Jump to the first boundary that can contain the pending arrival.
    boundary = std::max(boundary + beta, std::ceil(t / beta) * beta);
  }

  result.avg_streams = load.mean();
  result.max_streams = load.peak();
  return result;
}

}  // namespace vod
