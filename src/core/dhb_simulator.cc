#include "core/dhb_simulator.h"

#include <algorithm>
#include <deque>

#include "obs/qoe.h"
#include "obs/trace.h"
#include "schedule/slot_loop.h"
#include "util/check.h"

namespace vod {
namespace {

// A request and the slot it arrived in.
struct Arrival {
  Slot slot;
  double time;
};

// The single video on the slot loop: one scheduler stepped on every slot.
// It is never quiet, so the per-slot streams counter keeps its zero
// samples (a jumped span would hold the last value across the gap).
struct DhbRun : SlotVideo {
  void serve(uint64_t t) {
    const int streams = static_cast<int>(scheduler.advance_slot_view().size());
    // Per-slot server bandwidth in streams: a Chrome counter track that
    // renders the paper's Figure 7/8 load curves directly in the trace UI.
    VOD_TRACE_COUNTER("streams", "dhb", scheduler.current_slot(), streams);
    meter.add_slot(streams);
    if (sim.channel_cap == 0) return;
    VOD_CHECK(streams <= sim.channel_cap);
    // Deferred requests retry first, in arrival order: head-of-line
    // blocking keeps a new arrival from overtaking one still waiting.
    while (!pending.empty()) {
      if (scheduler.current_slot() - pending.front().slot >
          sim.max_extra_wait_slots) {
        if (horizon.measuring(t)) ++result.rejected;
      } else if (!admit_bounded(pending.front())) {
        break;
      }
      pending.pop_front();
    }
  }

  void arrive(uint64_t t, double x) {
    const Arrival a{static_cast<Slot>(t), x};
    if (sim.channel_cap == 0) {
      record(scheduler.on_request(), a);
    } else if (!pending.empty() || !admit_bounded(a)) {
      pending.push_back(a);
    }
  }

  bool admit_bounded(const Arrival& a) {
    const std::optional<DhbRequestResult> r =
        scheduler.on_request_bounded(sim.channel_cap);
    if (!r) return false;
    // The scheduler sees only the admission slot; the startup wait runs
    // from the request's own arrival slot, deferral included.
    if (obs::QoeShard* qoe = obs::current_qoe()) {
      const Slot startup = r->plan.reception_slot.front() - a.slot;
      qoe->record_admission(1, scheduler.current_slot(),
                            static_cast<double>(startup),
                            static_cast<uint64_t>(r->cap_violations),
                            r->plan.reception_slot.size());
    }
    record(*r, a);
    return true;
  }

  // A measured admission's accounting. The client is served from the next
  // slot boundary, so its wait runs from its arrival to the end of the
  // slot that admitted it.
  void record(const DhbRequestResult& r, const Arrival& a) {
    const Slot now = scheduler.current_slot();
    if (!horizon.measuring(static_cast<uint64_t>(now))) return;
    ++result.requests;
    const double wait = static_cast<double>(now) * horizon.slot_s - a.time;
    wait_sum += wait;
    result.max_wait_s = std::max(result.max_wait_s, wait);
    new_instances += static_cast<uint64_t>(r.new_instances);
    shared += static_cast<uint64_t>(r.shared_instances);
    result.cap_violations += static_cast<uint64_t>(r.cap_violations);
    const PlanDiagnostics diag = verify_plan(r.plan, scheduler.periods());
    result.playout_ok = result.playout_ok && diag.deadlines_met;
    result.max_client_streams =
        std::max(result.max_client_streams, diag.max_concurrent_streams);
    result.max_client_buffer_segments = std::max(
        result.max_client_buffer_segments, diag.max_buffered_segments);
    const int extra = static_cast<int>(now - a.slot);
    if (extra > 0) ++result.deferred;
    extra_wait += static_cast<uint64_t>(extra);
    result.max_extra_wait_slots = std::max(result.max_extra_wait_slots, extra);
  }

  const SlottedSimConfig& sim;
  const SlotHorizon& horizon;
  DhbScheduler scheduler;
  BandwidthMeter meter = horizon.meter();
  SlottedSimResult result = {};
  std::deque<Arrival> pending = {};  // deferred requests, oldest first
  uint64_t new_instances = 0;
  uint64_t shared = 0;
  uint64_t extra_wait = 0;
  double wait_sum = 0.0;
};

}  // namespace

SlottedSimResult run_dhb_simulation(const DhbConfig& dhb,
                                    const SlottedSimConfig& sim) {
  PoissonProcess arrivals(per_hour(sim.requests_per_hour), Rng(sim.seed));
  return run_dhb_simulation(dhb, sim, arrivals);
}

SlottedSimResult run_dhb_simulation(const DhbConfig& dhb,
                                    const SlottedSimConfig& sim,
                                    ArrivalProcess& arrivals) {
  VOD_CHECK(dhb.num_segments == sim.video.num_segments);
  VOD_CHECK(sim.channel_cap >= 0);
  const SlotHorizon horizon(sim.warmup_hours, sim.measured_hours,
                            sim.video.slot_duration_s());
  DhbRun run{{}, sim, horizon, DhbScheduler(dhb)};
  run_slots(horizon, arrivals, run);

  SlottedSimResult& result = run.result;
  const BandwidthMeter& meter = run.meter;
  result.avg_streams = meter.mean_streams();
  result.max_streams = meter.max_streams();
  // quantile() returns the bin's upper edge; slot counts are integers in
  // [k, k+1), so subtract the bin width to report the count itself.
  const Histogram& histogram = meter.stream_histogram();
  result.p99_streams = std::max(0.0, histogram.quantile(0.99) - 1.0);
  result.p999_streams = std::max(0.0, histogram.quantile(0.999) - 1.0);
  result.avg_ci = meter.mean_ci95();
  if (result.requests > 0) {
    const double requests = static_cast<double>(result.requests);
    result.avg_wait_s = run.wait_sum / requests;
    result.new_instances_per_request =
        static_cast<double>(run.new_instances) / requests;
    result.shared_fraction =
        static_cast<double>(run.shared) /
        static_cast<double>(run.new_instances + run.shared);
    result.avg_extra_wait_slots =
        static_cast<double>(run.extra_wait) / requests;
  }
  // Snapshot the run's accounting into the ambient sink (when the caller —
  // vodsim, a test, a bench — installed one): the scheduler's dhb_* and
  // schedule_* counters plus the meter's bandwidth_streams histogram.
  if (obs::ObsSink* sink = obs::current_sink();
      sink != nullptr && sink->metrics != nullptr) {
    run.scheduler.export_metrics(sink->metrics);
    meter.export_metrics(sink->metrics);
  }
  return result;
}

}  // namespace vod
