// Figure 8 — Compared maximum bandwidth requirements of NPB, UD and DHB
// protocols with 99 segments.
//
// Expected shape (paper §3): NPB has the smallest maximum (its constant
// stream count), DHB the highest, and the DHB-NPB difference never exceeds
// two streams ("a very reasonable price to pay for the better average
// performance"). UD's maximum is capped by FB's stream count.
#include <cstdio>

#include "bench_common.h"

#include "core/dhb_simulator.h"
#include "protocols/fast_broadcasting.h"
#include "protocols/npb.h"
#include "protocols/on_demand.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace vod;
  using namespace vod::bench;

  // --trace-out / --metrics-out / --qoe-out / --slo-out record the sweep.
  BenchObservability obs(argc, argv);

  const VideoParams video;
  const FbMapping ud_mapping(video.num_segments);  // UD = on-demand FB
  const double npb_streams =
      static_cast<double>(NpbMapping::streams_for(video.num_segments));

  print_header(
      "Figure 8: maximum bandwidth vs request arrival rate (99 segments)",
      "columns in multiples of the video consumption rate b");

  Table table({"req/h", "UD", "DHB", "NPB", "DHB-NPB gap"});
  double worst_gap = 0.0;
  for (const double rate : paper_rates()) {
    const SlottedSimResult ud =
        run_on_demand_simulation(ud_mapping, slotted_config(rate));
    obs.begin_run();
    const SlottedSimResult dhb =
        run_dhb_simulation(DhbConfig{}, slotted_config(rate));
    const double gap = dhb.max_streams - npb_streams;
    worst_gap = std::max(worst_gap, gap);
    table.add_numeric_row(
        {rate, ud.max_streams, dhb.max_streams, npb_streams, gap}, 1);
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
      "\nShape checks: NPB smallest, DHB highest; worst DHB-NPB gap = %.1f "
      "streams (paper: never exceeds 2).\n",
      worst_gap);
  return 0;
}
