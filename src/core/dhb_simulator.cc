#include "core/dhb_simulator.h"

#include <algorithm>
#include <deque>

#include "obs/qoe.h"
#include "obs/trace.h"
#include "schedule/slot_math.h"
#include "util/check.h"

namespace vod {

SlottedSimResult run_dhb_simulation(const DhbConfig& dhb,
                                    const SlottedSimConfig& sim) {
  PoissonProcess arrivals(per_hour(sim.requests_per_hour), Rng(sim.seed));
  return run_dhb_simulation(dhb, sim, arrivals);
}

SlottedSimResult run_dhb_simulation(const DhbConfig& dhb,
                                    const SlottedSimConfig& sim,
                                    ArrivalProcess& arrivals) {
  VOD_CHECK(dhb.num_segments == sim.video.num_segments);
  const double d = sim.video.slot_duration_s();
  const uint64_t warmup_slots = horizon_slots(sim.warmup_hours, d);
  const uint64_t total_slots =
      warmup_slots + horizon_slots(sim.measured_hours, d);

  DhbScheduler scheduler(dhb);
  BandwidthMeter meter(warmup_slots,
                       std::max<uint64_t>(1, (total_slots - warmup_slots) / 32));

  SlottedSimResult result;
  uint64_t measured_requests = 0;
  uint64_t measured_new = 0;
  uint64_t measured_shared = 0;
  double wait_sum = 0.0;

  double next_arrival = arrivals.next();
  // Slot k covers time [(k-1)*d, k*d), and a request arriving then is
  // admitted during slot k. The scheduler starts at slot 0 (time < 0 never
  // has arrivals), so each step advances first, then admits.
  for (uint64_t step = 0; step < total_slots; ++step) {
    const size_t streams = scheduler.advance_slot_view().size();
    const Slot now = scheduler.current_slot();
    // Per-slot server bandwidth in streams: a Chrome counter track that
    // renders the paper's Figure 7/8 load curves directly in the trace UI.
    VOD_TRACE_COUNTER("streams", "dhb", now, streams);
    const bool measuring = step >= warmup_slots;
    meter.add_slot(static_cast<int>(streams));

    const double slot_end = static_cast<double>(now) * d;
    while (next_arrival < slot_end) {
      const DhbRequestResult r = scheduler.on_request();
      if (measuring) {
        ++measured_requests;
        // The client is served starting at the next slot boundary.
        const double wait = slot_end - next_arrival;
        wait_sum += wait;
        result.max_wait_s = std::max(result.max_wait_s, wait);
        measured_new += static_cast<uint64_t>(r.new_instances);
        measured_shared += static_cast<uint64_t>(r.shared_instances);
        result.cap_violations += static_cast<uint64_t>(r.cap_violations);
        if (sim.verify_playout) {
          const PlanDiagnostics diag = verify_plan(r.plan, scheduler.periods());
          result.playout_ok = result.playout_ok && diag.deadlines_met;
          result.max_client_streams =
              std::max(result.max_client_streams, diag.max_concurrent_streams);
          result.max_client_buffer_segments =
              std::max(result.max_client_buffer_segments,
                       diag.max_buffered_segments);
        }
      }
      next_arrival = arrivals.next();
    }
  }

  result.avg_streams = meter.mean_streams();
  result.max_streams = meter.max_streams();
  // quantile() returns the bin's upper edge; slot counts are integers in
  // [k, k+1), so subtract the bin width to report the count itself.
  const Histogram& histogram = meter.stream_histogram();
  result.p99_streams = std::max(0.0, histogram.quantile(0.99) - 1.0);
  result.p999_streams = std::max(0.0, histogram.quantile(0.999) - 1.0);
  result.avg_ci = meter.mean_ci95();
  result.requests = measured_requests;
  if (measured_requests > 0) {
    result.avg_wait_s = wait_sum / static_cast<double>(measured_requests);
    result.new_instances_per_request =
        static_cast<double>(measured_new) /
        static_cast<double>(measured_requests);
    result.shared_fraction =
        static_cast<double>(measured_shared) /
        static_cast<double>(measured_new + measured_shared);
  }
  // Snapshot the run's accounting into the ambient sink (when the caller —
  // vodsim, a test, a bench — installed one): the scheduler's dhb_* and
  // schedule_* counters plus the meter's bandwidth_streams histogram.
  if (obs::ObsSink* sink = obs::current_sink();
      sink != nullptr && sink->metrics != nullptr) {
    scheduler.export_metrics(sink->metrics);
    meter.export_metrics(sink->metrics);
  }
  return result;
}

}  // namespace vod

namespace vod {

BoundedSimResult run_bounded_dhb_simulation(const DhbConfig& dhb,
                                            const BoundedSimConfig& sim) {
  VOD_CHECK(dhb.num_segments == sim.base.video.num_segments);
  VOD_CHECK(sim.channel_cap >= 1);
  const double d = sim.base.video.slot_duration_s();
  const uint64_t warmup_slots = horizon_slots(sim.base.warmup_hours, d);
  const uint64_t total_slots =
      warmup_slots + horizon_slots(sim.base.measured_hours, d);

  DhbScheduler scheduler(dhb);
  BandwidthMeter meter(warmup_slots,
                       std::max<uint64_t>(1, (total_slots - warmup_slots) / 32));
  PoissonProcess arrivals(per_hour(sim.base.requests_per_hour),
                          Rng(sim.base.seed));

  BoundedSimResult result;
  uint64_t total_wait = 0;
  std::deque<Slot> pending;  // arrival slots of requests still waiting

  double next_arrival = arrivals.next();
  for (uint64_t step = 0; step < total_slots; ++step) {
    const int streams = static_cast<int>(scheduler.advance_slot_view().size());
    const Slot now = scheduler.current_slot();
    VOD_TRACE_COUNTER("streams", "dhb", now, streams);
    VOD_CHECK(streams <= sim.channel_cap);
    meter.add_slot(streams);
    const bool measuring = step >= warmup_slots;

    // Deferred requests retry FIFO; head-of-line blocking keeps order.
    auto try_admit = [&](Slot arrived) {
      const std::optional<DhbRequestResult> r =
          scheduler.on_request_bounded(sim.channel_cap);
      if (!r) return false;
      // The scheduler sees only the admission slot; the startup wait runs
      // from the request's own arrival slot, deferral included.
      if (obs::QoeShard* qoe = obs::current_qoe()) {
        const Slot startup = r->plan.reception_slot.front() - arrived;
        qoe->record_admission(1, now, static_cast<double>(startup),
                              static_cast<uint64_t>(r->cap_violations),
                              r->plan.reception_slot.size());
      }
      if (measuring) {
        ++result.requests;
        const int wait = static_cast<int>(now - arrived);
        if (wait > 0) ++result.deferred;
        total_wait += static_cast<uint64_t>(wait);
        result.max_extra_wait_slots =
            std::max(result.max_extra_wait_slots, wait);
        if (sim.base.verify_playout) {
          result.playout_ok =
              result.playout_ok &&
              verify_plan(r->plan, scheduler.periods()).deadlines_met;
        }
      }
      return true;
    };

    while (!pending.empty()) {
      if (now - pending.front() > sim.max_extra_wait_slots) {
        if (measuring) ++result.rejected;
        pending.pop_front();
        continue;
      }
      if (!try_admit(pending.front())) break;
      pending.pop_front();
    }

    const double slot_end = static_cast<double>(now) * d;
    while (next_arrival < slot_end) {
      if (!pending.empty() || !try_admit(now)) pending.push_back(now);
      next_arrival = arrivals.next();
    }
  }

  result.avg_streams = meter.mean_streams();
  result.max_streams = meter.max_streams();
  if (result.requests > 0) {
    result.avg_extra_wait_slots =
        static_cast<double>(total_wait) / static_cast<double>(result.requests);
  }
  if (obs::ObsSink* sink = obs::current_sink();
      sink != nullptr && sink->metrics != nullptr) {
    scheduler.export_metrics(sink->metrics);
    meter.export_metrics(sink->metrics);
  }
  return result;
}

}  // namespace vod
