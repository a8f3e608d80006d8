#include "protocols/ud.h"

#include <cmath>
#include <limits>
#include <vector>

#include "schedule/bandwidth_meter.h"
#include "schedule/slot_math.h"
#include "sim/random.h"
#include "util/check.h"

namespace vod {

SlottedSimResult run_ud_simulation(const SlottedSimConfig& sim) {
  PoissonProcess arrivals(per_hour(sim.requests_per_hour), Rng(sim.seed));
  return run_ud_simulation(sim, arrivals);
}

SlottedSimResult run_ud_simulation(const SlottedSimConfig& sim,
                                   ArrivalProcess& arrivals) {
  const FbMapping fb(sim.video.num_segments);
  const double d = sim.video.slot_duration_s();
  const uint64_t warmup_slots = horizon_slots(sim.warmup_hours, d);
  const uint64_t total_slots =
      warmup_slots + horizon_slots(sim.measured_hours, d);

  std::vector<int> rotation(static_cast<size_t>(fb.streams()));
  for (int k = 0; k < fb.streams(); ++k) {
    rotation[static_cast<size_t>(k)] = fb.rotation_length(k);
  }

  BandwidthMeter meter(warmup_slots,
                       std::max<uint64_t>(1, (total_slots - warmup_slots) / 32));
  SlottedSimResult result;

  Slot last_arrival = std::numeric_limits<Slot>::min() / 2;
  double next_arrival = arrivals.next();

  for (uint64_t step = 1; step <= total_slots; ++step) {
    const Slot t = static_cast<Slot>(step);
    // Stream j transmits its scheduled segment during slot t iff a request
    // arrived within its rotation period: the first occurrence that request
    // waits for is exactly this one.
    int busy = 0;
    for (int len : rotation) {
      if (last_arrival >= t - static_cast<Slot>(len)) ++busy;
    }
    meter.add_slot(busy);

    const double slot_end = static_cast<double>(t) * d;
    while (next_arrival < slot_end) {
      last_arrival = t;
      if (step > warmup_slots) ++result.requests;
      next_arrival = arrivals.next();
    }
  }

  result.avg_streams = meter.mean_streams();
  result.max_streams = meter.max_streams();
  result.avg_ci = meter.mean_ci95();
  return result;
}

double ud_expected_bandwidth(const VideoParams& video,
                             double requests_per_hour) {
  const FbMapping fb(video.num_segments);
  const double per_slot = video.arrivals_per_slot(requests_per_hour);
  double total = 0.0;
  for (int k = 0; k < fb.streams(); ++k) {
    total += 1.0 - std::exp(-per_slot * fb.rotation_length(k));
  }
  return total;
}

}  // namespace vod
