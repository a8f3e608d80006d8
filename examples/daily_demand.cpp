// Daily demand — the paper's motivating scenario (§1): "the frequency of
// requests for any given video is likely to vary widely with the time of
// the day", which is exactly where a one-size protocol loses.
//
// Drives DHB and UD with a non-homogeneous Poisson process (2 requests/h
// overnight, 150/h in the evening) for a week of simulated time, buckets
// the server bandwidth by hour of day, and compares against NPB's
// always-on 6 streams.
//
// Build & run:   cmake --build build && ./build/examples/daily_demand
#include <cstdio>
#include <vector>

#include "core/dhb.h"
#include "protocols/npb.h"
#include "schedule/slot_math.h"
#include "schedule/types.h"
#include "sim/arrival_process.h"
#include "sim/random.h"
#include "util/table.h"

using namespace vod;

namespace {

// Runs a slotted DHB simulation against the arrival process and returns
// the mean bandwidth per hour-of-day bucket.
std::vector<double> run_daily_dhb(double days) {
  const VideoParams video;
  const double d = video.slot_duration_s();
  DhbScheduler scheduler(DhbConfig{});
  NonHomogeneousPoissonProcess arrivals(daily_demand_curve(2.0, 150.0),
                                        per_hour(150.0), Rng(7));
  std::vector<double> sum(24, 0.0), count(24, 0.0);
  const auto total_slots = static_cast<int64_t>(days * 24.0 * 3600.0 / d);
  double next = arrivals.next();
  for (int64_t step = 0; step < total_slots; ++step) {
    const size_t streams = scheduler.advance_slot_view().size();
    const double slot_end = static_cast<double>(scheduler.current_slot()) * d;
    // Hour of day via the audited helper (cycle_phase is 1-based):
    // cycle_phase(hours + 1, 24) == hours % 24 for hours >= 0.
    const auto hours_elapsed = static_cast<Slot>(slot_end / 3600.0);
    const int hour = static_cast<int>(cycle_phase(hours_elapsed + 1, 24));
    if (step > total_slots / 8) {  // skip warmup day
      sum[static_cast<size_t>(hour)] += static_cast<double>(streams);
      count[static_cast<size_t>(hour)] += 1.0;
    }
    while (next < slot_end) {
      scheduler.on_request();
      next = arrivals.next();
    }
  }
  for (int h = 0; h < 24; ++h) {
    if (count[static_cast<size_t>(h)] > 0) {
      sum[static_cast<size_t>(h)] /= count[static_cast<size_t>(h)];
    }
  }
  return sum;
}

}  // namespace

int main() {
  std::printf(
      "A week of time-varying demand: 2 req/h at 09:00, 150 req/h at 21:00\n"
      "(two-hour video, 99 segments). NPB broadcasts 6 streams around the\n"
      "clock no matter what; DHB follows the demand.\n\n");

  const std::vector<double> dhb = run_daily_dhb(8.0);
  const double npb_streams =
      static_cast<double>(NpbMapping::streams_for(99));

  Table table({"hour", "DHB streams", "NPB streams", "DHB saving"});
  double dhb_total = 0.0;
  for (int h = 0; h < 24; h += 2) {
    const double v = dhb[static_cast<size_t>(h)];
    table.add_row({std::to_string(h) + ":00", format_double(v, 2),
                   format_double(npb_streams, 0),
                   format_double(100.0 * (1.0 - v / npb_streams), 0) + "%"});
  }
  for (double v : dhb) dhb_total += v;
  table.print();

  std::printf(
      "\nDay-average: DHB %.2f streams vs NPB %.0f — the dynamic protocol\n"
      "recovers the bandwidth a fixed broadcast wastes off-peak while\n"
      "matching broadcast efficiency at the evening peak.\n",
      dhb_total / 24.0, npb_streams);
  return 0;
}
