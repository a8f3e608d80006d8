// Figure 9 — Compared average bandwidth requirements of the UD protocol
// and four implementations of the DHB protocol on a compressed (VBR)
// video, in MB/s.
//
// The input video is the synthetic stand-in for the paper's DVD trace of
// The Matrix (8170 s, 636 KB/s mean, 951 KB/s one-second peak — see
// src/vbr/synthetic.h for the substitution note). Derived parameters are
// printed first so the run documents its own §4 reproduction:
//   paper: DHB-a 137 seg @ 951, DHB-b @ 789, DHB-c/d 129 seg @ 671 KB/s.
//
// Expected shape: UD (peak-provisioned) worst; a > b > c >= d; switching
// to the deterministic waiting time (b) is the biggest single saving,
// frequency adjustment (d) the next (§4's conclusion).
#include <cstdio>

#include "bench_common.h"

#include "core/dhb_simulator.h"
#include "protocols/fast_broadcasting.h"
#include "protocols/on_demand.h"
#include "util/table.h"
#include "vbr/synthetic.h"
#include "vbr/variants.h"

namespace {

using namespace vod;

// Runs one DHB variant, on its own trace track, and returns its average
// bandwidth in MB/s.
double run_variant_mbs(vod::bench::BenchObservability& obs,
                       const DhbVariant& v, double rate) {
  SlottedSimConfig sim = vod::bench::slotted_config(rate);
  sim.video.duration_s = v.slot_s * v.num_segments;
  sim.video.num_segments = v.num_segments;
  obs.begin_run();
  const SlottedSimResult r = run_dhb_simulation(v.dhb_config(), sim);
  return r.avg_streams * v.stream_rate_kbs / 1000.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vod;
  using namespace vod::bench;

  // --trace-out / --metrics-out / --qoe-out / --slo-out record the sweep.
  BenchObservability obs(argc, argv);

  const VbrTrace trace = generate_synthetic_vbr(SyntheticVbrParams{});
  const VariantAnalysis va = analyze_variants(trace, 60.0);

  print_header("Figure 9: average bandwidth on a VBR video (MB/s)",
               "synthetic stand-in for The Matrix DVD trace");

  std::printf("trace: %d s, mean %.0f KB/s, 1s peak %.0f KB/s\n",
              trace.duration_s(), trace.mean_rate_kbs(),
              trace.peak_rate_kbs(1));
  std::printf("DHB-a: %3d segments @ %.0f KB/s   (paper: 137 @ 951)\n",
              va.a.num_segments, va.a.stream_rate_kbs);
  std::printf("DHB-b: %3d segments @ %.0f KB/s   (paper: 137 @ 789)\n",
              va.b.num_segments, va.b.stream_rate_kbs);
  std::printf("DHB-c: %3d segments @ %.0f KB/s   (paper: 129 @ 671)\n",
              va.c.num_segments, va.c.stream_rate_kbs);
  int delayed = 0, max_delay = 0;
  for (size_t k = 0; k < va.d.periods.size(); ++k) {
    const int delay = va.d.periods[k] - static_cast<int>(k + 1);
    if (delay > 0) ++delayed;
    max_delay = std::max(max_delay, delay);
  }
  std::printf(
      "DHB-d: T[1]=%d T[2]=%d T[3]=%d; %d/%d segments delayed, max delay %d "
      "slots\n       (paper: T[1]=1, T[2]=3, T[3]=3, nearly all delayed by "
      "1-8 slots)\n\n",
      va.d.periods[0], va.d.periods[1], va.d.periods[2], delayed,
      va.d.num_segments, max_delay);

  Table table({"req/h", "UD", "DHB-a", "DHB-b", "DHB-c", "DHB-d"});
  for (const double rate : paper_rates()) {
    // UD cannot exploit the video's VBR profile: it runs the playback
    // segmentation at the peak rate.
    SlottedSimConfig ud_sim = slotted_config(rate);
    ud_sim.video.duration_s = static_cast<double>(trace.duration_s());
    ud_sim.video.num_segments = va.a.num_segments;
    const SlottedSimResult ud =
        run_on_demand_simulation(FbMapping(va.a.num_segments), ud_sim);
    table.add_numeric_row({rate,
                           ud.avg_streams * va.peak_rate_kbs / 1000.0,
                           run_variant_mbs(obs, va.a, rate),
                           run_variant_mbs(obs, va.b, rate),
                           run_variant_mbs(obs, va.c, rate),
                           run_variant_mbs(obs, va.d, rate)},
                          3);
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
      "\nShape checks: UD worst at every rate; a > b > c >= d; the b step\n"
      "(deterministic waiting time) is the largest single saving.\n");
  return 0;
}
