// Quickstart — the DHB protocol in a dozen lines.
//
// Reproduces the paper's Figures 4 and 5 (the transmission schedules of
// one request into an idle system and of two overlapping requests), then
// runs a short Poisson simulation and prints the headline metrics.
//
// Build & run:   cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "core/dhb.h"
#include "core/dhb_simulator.h"
#include "schedule/stream_pool.h"

using namespace vod;

namespace {

// Renders the server-side schedule produced by a sequence of (slot,
// request) events, assigning instances to concrete streams first-fit.
void demo_figures_4_and_5() {
  DhbConfig config;
  config.num_segments = 6;  // the paper's illustration size
  DhbScheduler scheduler(config);
  StreamPool pool;

  auto admit = [&](const char* label) {
    const DhbRequestResult r = scheduler.on_request();
    for (Segment j = 1; j <= config.num_segments; ++j) {
      // Only freshly scheduled instances occupy new stream slots; shared
      // segments ride transmissions that are already in the grid.
      const Slot s = r.plan.reception_slot[static_cast<size_t>(j - 1)];
      if (pool.at(0, s) != j && pool.at(1, s) != j) pool.assign(j, s);
    }
    std::printf("%s: %d fresh instance(s), %d shared\n", label,
                r.new_instances, r.shared_instances);
  };

  scheduler.advance_slot_view();  // slot 1
  admit("request during slot 1 (idle system)   ");
  std::printf("\nFigure 4 — schedule after the first request:\n%s\n",
              pool.render(1, 9).c_str());

  scheduler.advance_slot_view();  // slot 2
  scheduler.advance_slot_view();  // slot 3
  admit("request during slot 3 (overlapping)   ");
  std::printf("\nFigure 5 — combined schedules of both requests:\n%s\n",
              pool.render(1, 9).c_str());
}

void demo_simulation() {
  DhbConfig dhb;  // 99 segments — the paper's configuration
  SlottedSimConfig sim;
  sim.requests_per_hour = 50.0;
  sim.warmup_hours = 4.0;
  sim.measured_hours = 50.0;

  const SlottedSimResult r = run_dhb_simulation(dhb, sim);
  std::printf(
      "50 requests/hour on a two-hour video, 99 segments (73 s max wait):\n"
      "  average bandwidth : %.2f streams (95%% CI +/- %.2f)\n"
      "  maximum bandwidth : %.0f streams\n"
      "  requests admitted : %llu, all playout deadlines met: %s\n"
      "  sharing           : %.0f%% of segment needs rode earlier "
      "transmissions\n",
      r.avg_streams, r.avg_ci.half_width, r.max_streams,
      static_cast<unsigned long long>(r.requests), r.playout_ok ? "yes" : "NO",
      100.0 * r.shared_fraction);
}

}  // namespace

int main() {
  std::printf("Dynamic Heuristic Broadcasting — quickstart\n\n");
  demo_figures_4_and_5();
  demo_simulation();
  return 0;
}
