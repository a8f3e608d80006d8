// Figure 7 — Compared average bandwidth requirements of stream tapping,
// NPB, UD and DHB protocols with 99 segments (two-hour video, Poisson
// arrivals, bandwidth in multiples of the consumption rate b).
//
// Expected shape (paper §3): the reactive curve is marginally best at one
// request/hour and worst above ~2/hour; DHB requires less average
// bandwidth than every rival above two requests/hour; NPB is flat at its
// stream count (6 for 99 segments); UD saturates at FB's 7 streams. Two
// reference curves are added: the EVZ lower bound for delayed service and
// the ideal-merging (HMSM-class) idealization §2 discusses.
#include <cstdio>

#include "bench_common.h"

#include "core/dhb_simulator.h"
#include "protocols/fast_broadcasting.h"
#include "protocols/harmonic.h"
#include "protocols/npb.h"
#include "protocols/on_demand.h"
#include "protocols/stream_tapping.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace vod;
  using namespace vod::bench;

  // --trace-out / --metrics-out record the DHB runs of the sweep.
  BenchObservability obs(argc, argv);

  const VideoParams video;  // two hours, 99 segments
  const FbMapping ud_mapping(video.num_segments);  // UD = on-demand FB
  const double npb_streams =
      static_cast<double>(NpbMapping::streams_for(video.num_segments));

  print_header(
      "Figure 7: average bandwidth vs request arrival rate (99 segments)",
      "columns in multiples of the video consumption rate b;\n"
      "tap/patch = stream tapping with the optimized restart threshold");

  Table table({"req/h", "tap/patch", "UD", "DHB", "NPB", "merge(HMSM)",
               "EVZ-bound"});
  for (const double rate : paper_rates()) {
    const TappingResult st =
        run_tapping_simulation(tapping_config(rate, TappingMode::kStreamTapping));
    const SlottedSimResult ud =
        run_on_demand_simulation(ud_mapping, slotted_config(rate));
    obs.begin_run();
    const SlottedSimResult dhb =
        run_dhb_simulation(DhbConfig{}, slotted_config(rate));
    TappingConfig merge_cfg =
        tapping_config(rate, TappingMode::kIdealMerging);
    merge_cfg.restart_threshold_s = merge_cfg.video_duration_s;
    const TappingResult merge = run_tapping_simulation(merge_cfg);
    const double evz = evz_lower_bound_delayed(
        per_hour(rate), video.duration_s, video.slot_duration_s());
    table.add_numeric_row({rate, st.avg_streams, ud.avg_streams,
                           dhb.avg_streams, npb_streams, merge.avg_streams,
                           evz},
                          2);
  }
  table.print();
  if (obs.enabled() && !obs.write()) return 1;
  if (const char* csv_path = csv_positional(argc, argv)) {
    // Optional CSV export for plotting: ./binary out.csv
    FILE* csv = std::fopen(csv_path, "w");
    if (csv != nullptr) {
      std::fputs(table.to_csv().c_str(), csv);
      std::fclose(csv);
      std::printf("\n(series written to %s)\n", csv_path);
    }
  }

  std::printf(
      "\nShape checks: DHB < NPB at every rate; DHB < UD at every rate;\n"
      "tap/patch best at 1 req/h, worst above ~2 req/h; UD -> 7 (FB).\n");
  return 0;
}
