#include "protocols/on_demand.h"

#include <limits>
#include <vector>

#include "schedule/slot_loop.h"
#include "sim/random.h"
#include "util/check.h"

namespace vod {
namespace {

// The on-demand variant on the slot loop. Never quiet: a mapping's idle
// slots still walk its streams to keep prev[] current.
struct OnDemandRun : SlotVideo {
  void serve(uint64_t step) {
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
  }

  void arrive(uint64_t step, double /*time*/) {
    last_arrival = static_cast<Slot>(step);
    if (horizon.measuring(step)) ++result.requests;
  }

  const StaticMapping& mapping;
  const SlotHorizon& horizon;
  BandwidthMeter meter = horizon.meter();
  // prev[m] = most recent slot in which the mapping scheduled S_m
  // (performed or not); last_arrival starts strictly below every prev
  // value so an idle system transmits nothing.
  std::vector<Slot> prev = std::vector<Slot>(
      static_cast<size_t>(mapping.num_segments()) + 1,
      std::numeric_limits<Slot>::min() / 2);
  Slot last_arrival = std::numeric_limits<Slot>::min();
  SlottedSimResult result = {};
};

}  // namespace

SlottedSimResult run_on_demand_simulation(const StaticMapping& mapping,
                                          const SlottedSimConfig& sim) {
  PoissonProcess arrivals(per_hour(sim.requests_per_hour), Rng(sim.seed));
  return run_on_demand_simulation(mapping, sim, arrivals);
}

SlottedSimResult run_on_demand_simulation(const StaticMapping& mapping,
                                          const SlottedSimConfig& sim,
                                          ArrivalProcess& arrivals) {
  VOD_CHECK(mapping.num_segments() == sim.video.num_segments);
  VOD_CHECK_MSG(sim.channel_cap == 0,
                "a channel cap needs DHB's bounded admission");
  const SlotHorizon horizon(sim.warmup_hours, sim.measured_hours,
                            sim.video.slot_duration_s());
  OnDemandRun run{{}, mapping, horizon};
  run_slots(horizon, arrivals, run);
  run.result.avg_streams = run.meter.mean_streams();
  run.result.max_streams = run.meter.max_streams();
  run.result.avg_ci = run.meter.mean_ci95();
  return run.result;
}

}  // namespace vod
