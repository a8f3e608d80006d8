// Admission control under a hard channel budget.
//
// Figure 8 prices DHB's flexibility at up to two streams over NPB's six.
// This table asks the operator's follow-up: what happens if the server
// owns exactly K channels and defers requests that would need a K+1-th?
// (FIFO retry each slot, giving up after 50 slots ~ one hour.)
//
// Expected shape: at K = 8 (the Figure 8 maximum) nothing ever waits; at
// K = 6 (NPB's budget) a small fraction of requests wait a slot or two at
// high rates. At K = 5 — below the H_99 = 5.18 unbounded saturation
// average — the system does NOT collapse: deferral synchronizes arrivals
// into shared admission slots, so DHB degrades into a batching protocol
// with bounded extra wait. The harmonic floor applies to one-admission-
// per-slot operation, not to the protocol itself.
#include "bench_common.h"

#include "core/dhb_simulator.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace vod;
  using namespace vod::bench;

  // --trace-out / --metrics-out / --qoe-out / --slo-out record the sweep.
  // Bounded admission is where nonzero waits appear, so the QoE histogram
  // shows the deferral tail, pooled over all 12 runs (every rate and
  // channel budget) into one stream.
  BenchObservability obs(argc, argv);

  print_header("DHB with K dedicated channels (99 segments)",
               "deferral = admitted late; reject = gave up after 50 slots");

  for (const double rate : {100.0, 500.0, 1000.0}) {
    std::printf("-- %.0f requests/hour --\n", rate);
    Table table({"K", "avg", "max", "deferred %", "avg wait (slots)",
                 "max wait", "rejected %"});
    for (const int cap : {5, 6, 7, 8}) {
      SlottedSimConfig sim = slotted_config(rate);
      sim.measured_hours = 150.0;
      sim.channel_cap = cap;
      obs.begin_run();
      const SlottedSimResult r = run_dhb_simulation(DhbConfig{}, sim);
      const double offered =
          static_cast<double>(r.requests + r.rejected);
      table.add_row(
          {std::to_string(cap), format_double(r.avg_streams, 2),
           format_double(r.max_streams, 0),
           format_double(100.0 * static_cast<double>(r.deferred) /
                             std::max(1.0, offered), 2),
           format_double(r.avg_extra_wait_slots, 3),
           std::to_string(r.max_extra_wait_slots),
           format_double(100.0 * static_cast<double>(r.rejected) /
                             std::max(1.0, offered), 2)});
    }
    table.print();
    std::printf("\n");
  }
  if (obs.enabled() && !obs.write()) return 1;

  std::printf(
      "Shape checks: K=8 never defers (the Figure 8 maximum); K=6 defers a\n"
      "small tail with sub-slot average extra wait; even K=5 < H_99 keeps\n"
      "serving everyone (self-batching), at ~1/3 of requests waiting a few\n"
      "slots.\n");
  return 0;
}
