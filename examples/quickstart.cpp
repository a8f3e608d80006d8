// Quickstart — the DHB protocol in a dozen lines.
//
// Reproduces the paper's Figures 4 and 5 (the transmission schedules of
// one request into an idle system and of two overlapping requests), then
// runs a short Poisson simulation and prints the headline metrics.
//
// Build & run:   cmake --build build && ./build/examples/quickstart
#include <algorithm>
#include <cstdio>
#include <span>
#include <vector>

#include "core/dhb.h"
#include "core/dhb_simulator.h"
#include "protocols/static_mapping.h"

using namespace vod;

namespace {

// Renders the server-side schedule produced by a sequence of (slot,
// request) events. A slot's row of the schedule is its channel layout:
// entry k rides stream k, so each fresh instance sits on the lowest stream
// idle in its slot, and a shared segment rides the instance already there.
void demo_figures_4_and_5() {
  DhbConfig config;
  config.num_segments = 6;  // the paper's illustration size
  DhbScheduler scheduler(config);
  const SlotSchedule& schedule = scheduler.schedule();
  // The schedule holds only the window ahead of its clock, so keep the
  // rows of the slots it has moved through: sent[s - 1] is slot s's.
  std::vector<std::vector<Segment>> sent;

  auto advance = [&] {
    const std::span<const Segment> row = scheduler.advance_slot_view();
    sent.emplace_back(row.begin(), row.end());
  };
  auto row_of = [&](Slot s) -> std::span<const Segment> {
    if (s <= schedule.now()) return sent[static_cast<size_t>(s - 1)];
    if (s <= schedule.now() + schedule.window()) return schedule.contents(s);
    return {};  // beyond the window nothing can be scheduled yet
  };
  auto render = [&](Slot first, Slot last) {
    size_t streams = 0;
    for (Slot s = first; s <= last; ++s) {
      streams = std::max(streams, row_of(s).size());
    }
    return render_grid(static_cast<int>(streams), first, last,
                       [&](int k, Slot s) {
                         const std::span<const Segment> row = row_of(s);
                         const size_t i = static_cast<size_t>(k);
                         return i < row.size() ? row[i] : Segment{0};
                       });
  };
  auto admit = [&](const char* label) {
    const DhbRequestResult r = scheduler.on_request();
    std::printf("%s: %d fresh instance(s), %d shared\n", label,
                r.new_instances, r.shared_instances);
  };

  advance();  // slot 1
  admit("request during slot 1 (idle system)   ");
  std::printf("\nFigure 4 — schedule after the first request:\n%s\n",
              render(1, 9).c_str());

  advance();  // slot 2
  advance();  // slot 3
  admit("request during slot 3 (overlapping)   ");
  std::printf("\nFigure 5 — combined schedules of both requests:\n%s\n",
              render(1, 9).c_str());
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
