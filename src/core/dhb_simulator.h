// End-to-end simulation driver for DHB (and any slotted dynamic protocol
// built on DhbScheduler).
//
// Reproduces the paper's measurement setup: Poisson request arrivals for a
// single video, a long steady-state run, and bandwidth reported in
// multiples of the consumption rate b. Every measured client's playout
// plan is verified against the deadline/concurrency/buffering contract.
//
// Channel-bounded admission control. A real server owns a fixed number of
// channels. With SlottedSimConfig::channel_cap > 0 the driver admits
// requests through DhbScheduler::on_request_bounded: a request that would
// push any slot beyond `channel_cap` streams waits (FIFO) and retries each
// slot, giving up after `max_extra_wait_slots`. This trades extra client
// waiting for a hard bandwidth ceiling — the quantitative answer to
// "Figure 8 says DHB needs up to NPB+2 streams; what if I only have K?"
#pragma once

#include <cstdint>
#include <memory>

#include "core/dhb.h"
#include "schedule/bandwidth_meter.h"
#include "schedule/types.h"
#include "sim/arrival_process.h"

namespace vod {

struct SlottedSimConfig {
  VideoParams video;            // duration and segment count (slot size)
  double requests_per_hour = 10.0;
  double warmup_hours = 8.0;    // >= 2 video durations for the default video
  double measured_hours = 200.0;
  uint64_t seed = 42;
  int channel_cap = 0;          // hard per-slot stream budget; 0 = unbounded
  int max_extra_wait_slots = 50;  // a deferred request gives up after this
};

struct SlottedSimResult {
  double avg_streams = 0.0;      // time-average bandwidth, units of b
  double max_streams = 0.0;      // maximum per-slot bandwidth, units of b
  // Channel-provisioning quantiles over measured slots (resolution one
  // stream): the budget covering 99% / 99.9% of slots. Filled by
  // run_dhb_simulation; run_on_demand_simulation leaves them at 0.
  double p99_streams = 0.0;
  double p999_streams = 0.0;
  ConfidenceInterval avg_ci;     // 95% batch-means CI on avg_streams
  uint64_t requests = 0;         // requests admitted in the measured window
  double new_instances_per_request = 0.0;  // scheduling work (§3 cost note)
  double shared_fraction = 0.0;  // fraction of segment needs served by sharing
  uint64_t cap_violations = 0;   // capped variant only
  int max_client_streams = 0;    // worst observed STB concurrency
  int max_client_buffer_segments = 0;  // worst observed STB buffering
  bool playout_ok = true;        // every verified plan met every deadline
  // Start-up waiting time (arrival to the start of the serving slot): the
  // paper's "no customer will ever wait more than 73 seconds" guarantee,
  // measured. Mean ~ d/2 under Poisson arrivals; max < d always, unless a
  // channel cap deferred the request: its wait includes the deferral.
  double avg_wait_s = 0.0;
  double max_wait_s = 0.0;
  // Channel-capped runs only: requests admitted later than their arrival
  // slot, requests that gave up waiting, and the admitted requests' extra
  // wait in slots.
  uint64_t deferred = 0;
  uint64_t rejected = 0;
  double avg_extra_wait_slots = 0.0;
  int max_extra_wait_slots = 0;
};

// Runs DHB with the given protocol config against Poisson arrivals.
SlottedSimResult run_dhb_simulation(const DhbConfig& dhb,
                                    const SlottedSimConfig& sim);

// Same, but the caller supplies the arrival process (time-varying demand,
// scripted tests). The process must produce times in seconds.
SlottedSimResult run_dhb_simulation(const DhbConfig& dhb,
                                    const SlottedSimConfig& sim,
                                    ArrivalProcess& arrivals);

}  // namespace vod
