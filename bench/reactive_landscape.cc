// The §2 related-work landscape, quantified: every reactive and hybrid
// baseline the paper discusses on one axis, against the EVZ lower bound
// and DHB.
//
//   batching    — whole-video multicast per interval (Dan et al.)
//   patching    — tap the latest original only (Hua, Cai & Sheu)
//   tapping     — + single-level extra tapping (Carter & Long)
//   catching    — selective catching: FB broadcast + zero-delay catch-up
//                 (Gao, Zhang & Towsley), O(log lambda L)
//   merging     — idealized recursive merging (HMSM-class, Eager-Vernon-
//                 Zahorjan), tracks the reactive lower bound
//   DHB         — the paper's protocol (73 s maximum wait)
//
// Note the service classes differ: batching/DHB delay playback start,
// the others are zero-delay. The table is the paper's §1-§2 argument in
// numbers: each mechanism buys a different region of the rate axis.
#include "bench_common.h"

#include "core/dhb_simulator.h"
#include "protocols/batching.h"
#include "protocols/harmonic.h"
#include "protocols/patching.h"
#include "protocols/selective_catching.h"
#include "protocols/stream_tapping.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace vod;
  using namespace vod::bench;

  // --trace-out / --metrics-out / --qoe-out / --slo-out record the sweep.
  // Of these runs only batching's clients have a wait that varies, so the
  // QoE JSONL is batching's wait, pooled over every rate into one stream.
  BenchObservability obs(argc, argv);

  print_header("Reactive & hybrid protocol landscape (two-hour video)",
               "streams (multiples of b); zero-delay unless noted");

  Table table({"req/h", "batching*", "patching", "tapping", "catching",
               "merging", "EVZ", "DHB*"});
  for (const double rate : paper_rates()) {
    BatchingConfig bc;
    bc.requests_per_hour = rate;
    bc.warmup_hours = 8.0;
    bc.measured_hours = rate < 10.0 ? 400.0 : 150.0;
    const BatchingResult batch = run_batching_simulation(bc);

    const TappingResult patch =
        run_patching_simulation(tapping_config(rate, TappingMode::kPatching));
    const TappingResult tap = run_tapping_simulation(
        tapping_config(rate, TappingMode::kStreamTapping));
    TappingConfig mc = tapping_config(rate, TappingMode::kIdealMerging);
    mc.restart_threshold_s = mc.video_duration_s;
    const TappingResult merge = run_tapping_simulation(mc);

    SelectiveCatchingConfig sc;
    sc.requests_per_hour = rate;
    sc.warmup_hours = 8.0;
    sc.measured_hours = rate < 10.0 ? 400.0 : 150.0;
    const SelectiveCatchingResult cat =
        run_selective_catching_simulation(sc);

    obs.begin_run();
    const SlottedSimResult dhb =
        run_dhb_simulation(DhbConfig{}, slotted_config(rate));
    const double evz = evz_lower_bound(per_hour(rate), 7200.0);

    table.add_numeric_row({rate, batch.avg_streams, patch.avg_streams,
                           tap.avg_streams, cat.avg_streams,
                           merge.avg_streams, evz, dhb.avg_streams},
                          2);
  }
  table.print();
  if (obs.enabled() && !obs.write()) return 1;

  std::printf(
      "\n* batching waits up to 72.7 s for the next batch; DHB waits up to\n"
      "  73 s for the next slot; all other columns start playback\n"
      "  immediately.\n"
      "Shape checks: patching/tapping grow ~sqrt(rate); catching grows\n"
      "~log(rate); merging tracks the EVZ bound; DHB undercuts every\n"
      "zero-delay protocol above a few requests/hour — the paper's case\n"
      "for trading 73 seconds of wait for broadcast-class efficiency.\n");
  return 0;
}
