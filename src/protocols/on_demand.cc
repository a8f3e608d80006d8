#include "protocols/on_demand.h"

#include <limits>
#include <vector>

#include "schedule/bandwidth_meter.h"
#include "schedule/slot_math.h"
#include "sim/random.h"
#include "util/check.h"

namespace vod {

SlottedSimResult run_on_demand_simulation(const StaticMapping& mapping,
                                          const SlottedSimConfig& sim) {
  PoissonProcess arrivals(per_hour(sim.requests_per_hour), Rng(sim.seed));
  return run_on_demand_simulation(mapping, sim, arrivals);
}

SlottedSimResult run_on_demand_simulation(const StaticMapping& mapping,
                                          const SlottedSimConfig& sim,
                                          ArrivalProcess& arrivals) {
  VOD_CHECK(mapping.num_segments() == sim.video.num_segments);
  const double d = sim.video.slot_duration_s();
  const uint64_t warmup_slots = horizon_slots(sim.warmup_hours, d);
  const uint64_t total_slots =
      warmup_slots + horizon_slots(sim.measured_hours, d);

  BandwidthMeter meter(warmup_slots,
                       std::max<uint64_t>(1, (total_slots - warmup_slots) / 32));
  SlottedSimResult result;

  // prev[m] = most recent slot in which the mapping scheduled S_m
  // (performed or not); last_arrival starts strictly below every prev
  // value so an idle system transmits nothing.
  std::vector<Slot> prev(static_cast<size_t>(mapping.num_segments()) + 1,
                         std::numeric_limits<Slot>::min() / 2);
  Slot last_arrival = std::numeric_limits<Slot>::min();
  double next_arrival = arrivals.next();

  for (uint64_t step = 1; step <= total_slots; ++step) {
    const Slot t = static_cast<Slot>(step);
    int busy = 0;
    for (int k = 0; k < mapping.streams(); ++k) {
      const Segment m = mapping.segment_at(k, t);
      if (m == 0) continue;
      // Needed iff some client arrived since the previous occurrence: its
      // first occurrence of S_m after arrival is this one.
      if (last_arrival >= prev[static_cast<size_t>(m)]) ++busy;
      prev[static_cast<size_t>(m)] = t;
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

}  // namespace vod
