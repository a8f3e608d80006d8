// vodsim — command-line driver for the simulation library.
//
// Usage:
//   vodsim [--protocol dhb|ud|dnpb|dsb|tapping|patching|merging|catching|
//                      batching|multi]
//          [--rate R]        requests/hour            (default 50)
//          [--segments N]    segments / slot count    (default 99)
//          [--duration S]    video length in seconds  (default 7200)
//          [--hours H]       measured hours           (default 100)
//          [--seed S]        RNG seed                 (default 42)
//          [--videos V]      catalog size, multi only (default 200)
//          [--threads T]     engine workers, multi only (default 1)
//          [--policy P]      dhb|static|hybrid|adaptive, multi only
//                            (default dhb)
//          [--trace-out P]   write Chrome trace-event JSON to P
//          [--metrics-out P] write the counters and histograms to P as JSONL
//          [--qoe-out P]     write the run's QoE JSONL (one wait
//                            histogram with exemplars, continuity) plus
//                            the flight-recorder decisions to P; also arms
//                            the VOD_CHECK violation dump to P.violations.
//                            Only a batching run writes QoE lines here:
//                            the other protocols fix their clients' wait
//                            and continuity by construction
//          [--slo-out P]     write SLO burn-rate JSONL to P
//
// Prints average/maximum bandwidth and protocol-specific diagnostics.
// Exit code 0 on success, 2 on bad usage: an unknown flag, a number that
// does not parse whole, is not finite or does not fit its type, a value
// out of range, or a horizon past kMaxHorizonSlots (schedule/slot_math.h).
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>

#include "core/dhb_simulator.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "protocols/batching.h"
#include "protocols/fast_broadcasting.h"
#include "protocols/npb.h"
#include "protocols/on_demand.h"
#include "protocols/patching.h"
#include "protocols/selective_catching.h"
#include "protocols/skyscraper.h"
#include "protocols/stream_tapping.h"
#include "protocols/ud.h"
#include "schedule/slot_math.h"
#include "server/multi_video.h"
#include "util/parallel_for.h"

using namespace vod;

namespace {

struct Options {
  std::string protocol = "dhb";
  double rate = 50.0;
  int segments = 99;
  double duration = 7200.0;
  double hours = 100.0;
  uint64_t seed = 42;
  int videos = 200;
  int threads = 1;
  std::string policy = "dhb";
  std::string trace_out;
  std::string metrics_out;
  std::string qoe_out;
  std::string slo_out;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--protocol dhb|ud|dnpb|dsb|tapping|patching|"
               "merging|catching|batching|multi]\n"
               "          [--rate R] [--segments N] [--duration S] "
               "[--hours H] [--seed S]\n"
               "          [--videos V] [--threads T] "
               "[--policy dhb|static|hybrid|adaptive]\n"
               "          [--trace-out trace.json] "
               "[--metrics-out metrics.jsonl]\n"
               "          [--qoe-out qoe.jsonl] [--slo-out slo.jsonl]\n",
               argv0);
  return 2;
}

// Reads all of `text` as a T: no trailing characters, in T's range, and
// finite for floating-point T.
template <typename T>
bool parse_number(const char* text, T* out) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  *out = value;
  return true;
}

bool parse(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    bool ok = true;
    if (flag == "--protocol") {
      opt->protocol = value;
    } else if (flag == "--rate") {
      ok = parse_number(value, &opt->rate);
    } else if (flag == "--segments") {
      ok = parse_number(value, &opt->segments);
    } else if (flag == "--duration") {
      ok = parse_number(value, &opt->duration);
    } else if (flag == "--hours") {
      ok = parse_number(value, &opt->hours);
    } else if (flag == "--seed") {
      ok = parse_number(value, &opt->seed);
    } else if (flag == "--videos") {
      ok = parse_number(value, &opt->videos);
    } else if (flag == "--threads") {
      ok = parse_number(value, &opt->threads);
    } else if (flag == "--policy") {
      opt->policy = value;
    } else if (flag == "--trace-out") {
      opt->trace_out = value;
    } else if (flag == "--metrics-out") {
      opt->metrics_out = value;
    } else if (flag == "--qoe-out") {
      opt->qoe_out = value;
    } else if (flag == "--slo-out") {
      opt->slo_out = value;
    } else {
      return false;
    }
    if (!ok) return false;
  }
  if (!(opt->rate > 0 && opt->segments > 0 && opt->duration > 0 &&
        opt->hours > 0 && opt->videos > 0 && opt->threads >= 0)) {
    return false;
  }
  // The catalog engine runs its own fixed slot length; the single-video
  // protocols slice the video into `segments` slots.
  const double slot_s =
      opt->protocol == "multi"
          ? MultiVideoConfig{}.slot_duration_s
          : VideoParams{opt->duration, opt->segments}.slot_duration_s();
  return horizon_fits(opt->hours, slot_s);
}

void report(const char* name, double avg, double max, uint64_t requests) {
  std::printf("%-10s avg %.3f streams   max %.0f streams   (%llu requests)\n",
              name, avg, max, static_cast<unsigned long long>(requests));
}

// Writes whatever the run recorded. The QoE file carries the
// flight-recorder decisions too, so one artifact tells the whole story:
// what clients experienced and which controller decisions put their video
// on that rung.
bool write_observability(const Options& opt,
                         const std::vector<const obs::TraceBuffer*>& buffers,
                         const obs::MetricShard& metrics,
                         const obs::QoeShard& qoe,
                         const std::vector<const obs::FlightRecorder*>& flights) {
  bool ok = true;
  if (!opt.trace_out.empty()) {
    ok = obs::write_chrome_trace(opt.trace_out, buffers) && ok;
    if (ok) std::printf("trace   -> %s\n", opt.trace_out.c_str());
  }
  if (!opt.metrics_out.empty()) {
    ok = obs::write_metrics_jsonl(opt.metrics_out, metrics) && ok;
    if (ok) std::printf("metrics -> %s\n", opt.metrics_out.c_str());
  }
  if (!opt.qoe_out.empty()) {
    ok = obs::write_qoe_jsonl(opt.qoe_out, qoe, flights) && ok;
    if (ok) std::printf("qoe     -> %s\n", opt.qoe_out.c_str());
  }
  if (!opt.slo_out.empty()) {
    ok = obs::write_slo_jsonl(opt.slo_out, qoe) && ok;
    if (ok) std::printf("slo     -> %s\n", opt.slo_out.c_str());
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, &opt)) return usage(argv[0]);
  const bool observe = !opt.trace_out.empty() || !opt.metrics_out.empty() ||
                       !opt.qoe_out.empty() || !opt.slo_out.empty();
  // With a QoE file requested, a VOD_CHECK failure dumps the last flight
  // recorder decisions and QoE samples next to it before aborting — the
  // pre-violation context the postmortem needs.
  if (!opt.qoe_out.empty()) {
    obs::arm_violation_dump(opt.qoe_out + ".violations");
  }

  if (opt.protocol == "multi") {
    // The sharded catalog engine, with per-shard observability when any
    // output was requested.
    MultiVideoConfig mc;
    mc.catalog_size = opt.videos;
    mc.num_segments = opt.segments;
    mc.total_requests_per_hour = opt.rate;
    mc.measured_hours = opt.hours;
    mc.num_threads = opt.threads;
    mc.seed = opt.seed;
    if (opt.policy == "static") {
      mc.policy = VideoPolicy::kStatic;
    } else if (opt.policy == "hybrid") {
      mc.policy = VideoPolicy::kHybrid;
    } else if (opt.policy == "adaptive") {
      mc.policy = VideoPolicy::kAdaptive;
    } else if (opt.policy != "dhb") {
      return usage(argv[0]);
    }
    obs::EngineObserver observer;
    if (observe) mc.observer = &observer;
    const MultiVideoResult r = run_multi_video_simulation(mc);
    // The workers the engine ran: the resolved request, capped at the
    // shard count.
    const int shards = (opt.videos + MultiVideoConfig::kShardSize - 1) /
                       MultiVideoConfig::kShardSize;
    const int workers = std::min(resolve_num_threads(opt.threads), shards);
    std::printf("catalog %d videos, %d segments each, %.1f req/h aggregate, "
                "%.0f measured hours, %d threads\n\n",
                opt.videos, opt.segments, opt.rate, opt.hours, workers);
    report("multi", r.avg_streams, r.max_streams, r.requests);
    if (observe) {
      const obs::MetricShard merged = observer.merged_metrics();
      const std::unique_ptr<obs::QoeShard> qoe = observer.merged_qoe();
      if (!write_observability(opt, observer.trace_buffers(), merged, *qoe,
                               observer.flight_recorders())) {
        return 1;
      }
    }
    return 0;
  }

  // Single-video protocols record through the ambient per-thread sink; the
  // DHB simulator also snapshots its scheduler/meter counters into it.
  obs::MetricShard metrics;
  obs::TraceBuffer trace;
  obs::QoeShard qoe;
  obs::FlightRecorder flight;
  obs::ObsSink sink{&metrics, &trace, &qoe, &flight};
  std::optional<obs::ScopedObsSink> scoped;
  if (observe) {
    scoped.emplace(&sink);
  }

  SlottedSimConfig sim;
  sim.video.duration_s = opt.duration;
  sim.video.num_segments = opt.segments;
  sim.requests_per_hour = opt.rate;
  sim.warmup_hours = 2.0 * opt.duration / 3600.0;
  sim.measured_hours = opt.hours;
  sim.seed = opt.seed;

  TappingConfig tap;
  tap.video_duration_s = opt.duration;
  tap.requests_per_hour = opt.rate;
  tap.warmup_hours = sim.warmup_hours;
  tap.measured_hours = opt.hours;
  tap.seed = opt.seed;

  std::printf("video %.0f s, %d segments (max wait %.1f s), %.1f req/h, "
              "%.0f measured hours\n\n",
              opt.duration, opt.segments, sim.video.slot_duration_s(),
              opt.rate, opt.hours);

  if (opt.protocol == "dhb") {
    DhbConfig dhb;
    dhb.num_segments = opt.segments;
    const SlottedSimResult r = run_dhb_simulation(dhb, sim);
    report("DHB", r.avg_streams, r.max_streams, r.requests);
    std::printf("           sharing %.1f%%, playout %s, client <= %d "
                "streams / %d buffered segments\n",
                100.0 * r.shared_fraction, r.playout_ok ? "ok" : "VIOLATED",
                r.max_client_streams, r.max_client_buffer_segments);
  } else if (opt.protocol == "ud") {
    const SlottedSimResult r =
        run_on_demand_simulation(FbMapping(opt.segments), sim);
    report("UD", r.avg_streams, r.max_streams, r.requests);
    std::printf("           closed form %.3f streams\n",
                ud_expected_bandwidth(sim.video, opt.rate));
  } else if (opt.protocol == "dnpb") {
    const auto mapping =
        NpbMapping::build(NpbMapping::streams_for(opt.segments), opt.segments);
    const SlottedSimResult r = run_on_demand_simulation(*mapping, sim);
    report("dyn-NPB", r.avg_streams, r.max_streams, r.requests);
  } else if (opt.protocol == "dsb") {
    const SbMapping mapping(opt.segments);
    const SlottedSimResult r = run_on_demand_simulation(mapping, sim);
    report("dyn-SB", r.avg_streams, r.max_streams, r.requests);
  } else if (opt.protocol == "tapping" || opt.protocol == "patching" ||
             opt.protocol == "merging") {
    tap.mode = opt.protocol == "tapping" ? TappingMode::kStreamTapping
               : opt.protocol == "patching" ? TappingMode::kPatching
                                            : TappingMode::kIdealMerging;
    const TappingResult r = run_tapping_simulation(tap);
    report(opt.protocol.c_str(), r.avg_streams, r.max_streams, r.requests);
    std::printf("           restart threshold %.0f s, %llu originals, "
                "avg patch %.0f s\n",
                r.restart_threshold_s,
                static_cast<unsigned long long>(r.originals), r.avg_cost_s);
  } else if (opt.protocol == "catching") {
    SelectiveCatchingConfig sc;
    sc.video_duration_s = opt.duration;
    sc.requests_per_hour = opt.rate;
    sc.warmup_hours = tap.warmup_hours;
    sc.measured_hours = opt.hours;
    sc.seed = opt.seed;
    const SelectiveCatchingResult r = run_selective_catching_simulation(sc);
    report("catching", r.avg_streams, r.max_streams, r.requests);
    std::printf("           %d dedicated broadcast channels\n",
                r.broadcast_channels);
  } else if (opt.protocol == "batching") {
    BatchingConfig bc;
    bc.video_duration_s = opt.duration;
    bc.batch_interval_s = sim.video.slot_duration_s();
    bc.requests_per_hour = opt.rate;
    bc.warmup_hours = tap.warmup_hours;
    bc.measured_hours = opt.hours;
    bc.seed = opt.seed;
    const BatchingResult r = run_batching_simulation(bc);
    report("batching", r.avg_streams, r.max_streams, r.requests);
    std::printf("           %llu multicast streams started\n",
                static_cast<unsigned long long>(r.streams_started));
  } else {
    return usage(argv[0]);
  }
  if (observe &&
      !write_observability(opt, {&trace}, metrics, qoe, {&flight})) {
    return 1;
  }
  return 0;
}
