// The one slot loop every slotted driver runs on.
//
// DHB is slotted (the paper's Figure 6): with d = D/n, slot t covers the
// time [(t-1)·d, t·d), a request that arrives during slot t is admitted in
// it and served from slot t + 1, and bandwidth is counted per slot.
// run_slots() owns that rule for run_dhb_simulation,
// run_on_demand_simulation and the catalog engine's per-video kernel:
//
//   * the horizon: slots 1..warmup are warm-up and warmup+1..total are
//     measured, both counts taken through horizon_slots();
//   * the slot rule: serve slot t, hand the video every arrival x < t·d in
//     time order, then close slot t;
//   * the next-event jump: a video that reports itself quiet has nothing to
//     send before its next arrival, so the loop moves it straight to the
//     slot that holds that arrival and lets it fold the slots it skipped.
//
// A video is any type with the members of SlotVideo, whose no-op versions
// a driver inherits and hides: quiet(), skip(from, to) for the slots
// [from, to) a quiet video passes (to is total + 1 when no arrival is left
// in the horizon, and the video's clock then ends on slot total),
// serve(t), arrive(t, x) and close(t). A quiet video is served only on the
// slot its next arrival falls in.
#pragma once

#include <algorithm>
#include <cstdint>

#include "schedule/bandwidth_meter.h"
#include "schedule/slot_math.h"
#include "sim/arrival_process.h"

namespace vod {

struct SlotHorizon {
  SlotHorizon(double warmup_hours, double measured_hours,
              double slot_duration_s)
      : slot_s(slot_duration_s),
        warmup(horizon_slots(warmup_hours, slot_duration_s)),
        total(warmup + horizon_slots(measured_hours, slot_duration_s)) {}

  uint64_t measured() const { return total - warmup; }
  bool measuring(uint64_t slot) const { return slot > warmup; }
  // Discards the warm-up and cuts the measured slots into 32 batches.
  BandwidthMeter meter() const {
    return BandwidthMeter(warmup, std::max<uint64_t>(1, measured() / 32));
  }

  double slot_s;  // d
  uint64_t warmup;
  uint64_t total;
};

// The first slot in [from, last] whose drain takes an arrival at time `x`,
// decided by the loop's own test x < t·d; last + 1 when none does (x = +inf
// included). The test is monotone in t and the quotient x / d only seeds
// the search, so rounding cannot move the arrival to a neighbouring slot.
inline uint64_t arrival_slot(double x, uint64_t from, uint64_t last,
                             double d) {
  const auto holds = [&](uint64_t t) {
    return x < static_cast<double>(t) * d;
  };
  if (!holds(last)) return last + 1;
  const double guess = x / d;  // below about `last` here
  uint64_t t = guess > static_cast<double>(from)
                   ? std::min(last, static_cast<uint64_t>(guess))
                   : from;
  while (t > from && holds(t - 1)) --t;
  while (!holds(t)) ++t;
  return t;
}

struct SlotVideo {
  bool quiet() const { return false; }
  void skip(uint64_t /*from*/, uint64_t /*to*/) {}
  void serve(uint64_t /*slot*/) {}
  void arrive(uint64_t /*slot*/, double /*time*/) {}
  void close(uint64_t /*slot*/) {}
};

template <class Video>
void run_slots(const SlotHorizon& horizon, ArrivalProcess& arrivals,
               Video& video) {
  double next = arrivals.next();
  for (uint64_t t = 1; t <= horizon.total; ++t) {
    if (video.quiet()) {
      const uint64_t to = arrival_slot(next, t, horizon.total, horizon.slot_s);
      video.skip(t, to);
      if (to > horizon.total) return;
      t = to;
    }
    video.serve(t);
    const double end = static_cast<double>(t) * horizon.slot_s;
    for (; next < end; next = arrivals.next()) video.arrive(t, next);
    video.close(t);
  }
}

}  // namespace vod
