// Observability overhead: the DHB admission hot path run through three
// sink configurations on one identical arrival trace —
//   nosink   no ambient ObsSink installed (the production default; with
//            VOD_OBSERVE=ON each macro site costs one thread-local load
//            and a branch, with VOD_OBSERVE=OFF the macros are gone),
//   metrics  ObsSink carrying a MetricShard but no trace ring (the branch
//            is taken, trace emission still skipped),
//   full     MetricShard plus TraceBuffer plus the QoE shard and flight
//            recorder. An uncapped admission records into none of them:
//            its outcome is in the scheduler's counters, and its wait and
//            continuity are fixed by construction, so trace_events and
//            qoe_requests read 0 here.
//
// Every point first replays a fixed-length trace through all three modes
// and insists the scheduler's lifetime counters and an FNV checksum over
// every transmission and admitted plan are bit-identical — observability
// must never feed back into the simulation. Only then are the modes timed:
// one slot count calibrated on the nosink mode and shared by all three,
// repetitions interleaved round-robin (nosink, metrics, full, nosink, ...)
// so clock-speed drift hits every mode equally instead of biasing
// whichever ran last — the asymmetry that used to report (nonsense)
// negative overheads — and the best pass kept per mode.
//
// The checksum is also the cross-build determinism probe: a VOD_OBSERVE=OFF
// build of this binary must produce the same checksums, and comparing its
// nosink requests/sec against the ON build's (same machine, back to back)
// is what proves the disabled-instrumentation overhead budget of
// DESIGN.md §10. scripts/bench_compare.py performs both checks.
//
// Usage: observability_overhead [--smoke] [output.json]
//   Writes BENCH_observability.json (or the given path) next to the table.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/dhb.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/qoe.h"
#include "obs/trace.h"
#include "sim/random.h"
#include "util/table.h"

namespace {

using vod::DhbConfig;
using vod::DhbRequestResult;
using vod::DhbScheduler;
using vod::Rng;
using vod::Segment;

constexpr uint64_t kSeed = 20010416;

enum class SinkMode { kNoSink, kMetrics, kFull };

struct Run {
  double seconds = 0.0;
  uint64_t requests = 0;
  uint64_t new_instances = 0;
  uint64_t shared = 0;
  uint64_t probes = 0;
  uint64_t work_units = 0;
  uint64_t checksum = 0;
  uint64_t trace_events = 0;
  uint64_t qoe_requests = 0;
};

// Replays `slots` slots of Poisson(rate) same-slot arrival batches through
// the fast admission path with the requested ambient sink installed. The
// checksum folds in every transmitted segment and every admitted plan.
Run run_mode(int segments, double rate, uint64_t slots, SinkMode mode) {
  vod::obs::MetricShard metrics;
  vod::obs::TraceBuffer trace;
  vod::obs::QoeShard qoe;
  vod::obs::FlightRecorder flight;
  vod::obs::ObsSink sink;
  std::optional<vod::obs::ScopedObsSink> scoped;
  if (mode != SinkMode::kNoSink) {
    sink.metrics = &metrics;
    if (mode == SinkMode::kFull) {
      sink.trace = &trace;
      sink.qoe = &qoe;
      sink.flight = &flight;
    }
    scoped.emplace(&sink);
  }

  DhbConfig config;
  config.num_segments = segments;
  DhbScheduler scheduler(config);
  Rng arrivals(kSeed);
  uint64_t checksum = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&checksum](uint64_t v) {
    checksum ^= v;
    checksum *= 1099511628211ull;  // FNV prime
  };

  const auto start = std::chrono::steady_clock::now();
  for (uint64_t slot = 0; slot < slots; ++slot) {
    for (Segment j : scheduler.advance_slot_view()) {
      mix(static_cast<uint64_t>(j));
    }
    const uint64_t batch = arrivals.poisson(rate);
    if (batch == 0) continue;
    const DhbRequestResult last = scheduler.on_request_batch(batch);
    mix(batch);
    for (vod::Slot s : last.plan.reception_slot) {
      mix(static_cast<uint64_t>(s));
    }
  }
  const auto end = std::chrono::steady_clock::now();

  if (sink.metrics != nullptr) scheduler.export_metrics(sink.metrics);

  Run run;
  run.seconds = std::chrono::duration<double>(end - start).count();
  run.requests = scheduler.total_requests();
  run.new_instances = scheduler.total_new_instances();
  run.shared = scheduler.total_shared();
  run.probes = scheduler.total_slot_probes();
  run.work_units = scheduler.total_work_units();
  run.checksum = checksum;
  run.trace_events = trace.emitted();
  for (const auto& [key, group] : qoe.groups()) {
    run.qoe_requests += group.requests;
  }
  return run;
}

// Everything the simulation observes must match across sink modes;
// trace_events is the only field allowed to differ.
bool identical(const Run& a, const Run& b) {
  return a.requests == b.requests && a.new_instances == b.new_instances &&
         a.shared == b.shared && a.probes == b.probes &&
         a.work_units == b.work_units && a.checksum == b.checksum;
}

double rps_of(const Run& run) {
  return static_cast<double>(run.requests) /
         (run.seconds > 0.0 ? run.seconds : 1e-9);
}

// Grows the slot count geometrically on the nosink mode until one run is
// long enough to trust. Every mode then times this same count: overheads
// are ratios, and ratios of unequal-length runs confound sink cost with
// warm-up share.
uint64_t calibrate_slots(int segments, double rate, double min_seconds) {
  uint64_t slots = 256;
  Run probe = run_mode(segments, rate, slots, SinkMode::kNoSink);
  while (probe.seconds < min_seconds && slots < (1ull << 24)) {
    double grow =
        probe.seconds > 0.0 ? (1.5 * min_seconds) / probe.seconds : 8.0;
    if (grow < 2.0) grow = 2.0;
    if (grow > 16.0) grow = 16.0;
    slots = slots * static_cast<uint64_t>(grow);
    probe = run_mode(segments, rate, slots, SinkMode::kNoSink);
  }
  return slots;
}

// One round-robin timing pass per repetition — every mode runs once per
// pass, back to back, so frequency/thermal drift is shared rather than
// accumulated into whichever mode happens to run last. Best-of across
// passes filters scheduler/cache interference.
void timed_round_robin(int segments, double rate, uint64_t slots, int reps,
                       Run* best_none, Run* best_metrics, Run* best_full) {
  for (int r = 0; r < reps; ++r) {
    const Run none = run_mode(segments, rate, slots, SinkMode::kNoSink);
    const Run with_metrics =
        run_mode(segments, rate, slots, SinkMode::kMetrics);
    const Run with_full = run_mode(segments, rate, slots, SinkMode::kFull);
    if (r == 0 || rps_of(none) > rps_of(*best_none)) *best_none = none;
    if (r == 0 || rps_of(with_metrics) > rps_of(*best_metrics)) {
      *best_metrics = with_metrics;
    }
    if (r == 0 || rps_of(with_full) > rps_of(*best_full)) {
      *best_full = with_full;
    }
  }
}

struct Point {
  int segments = 0;
  double rate = 0.0;
  uint64_t requests = 0;
  uint64_t checksum = 0;       // deterministic; equal across builds/modes
  uint64_t trace_events = 0;   // full-sink identity run
  uint64_t qoe_requests = 0;   // full-sink identity run (0 when compiled out)
  double nosink_rps = 0.0;
  double metrics_rps = 0.0;
  double full_rps = 0.0;
  double metrics_overhead = 0.0;  // 1 - metrics_rps / nosink_rps
  double full_overhead = 0.0;     // 1 - full_rps / nosink_rps
  bool same = false;
};

void write_json(const std::string& path, const std::vector<Point>& points,
                uint64_t identity_slots, bool all_identical) {
#ifdef VOD_OBSERVE_DISABLED
  const bool observe_compiled = false;
#else
  const bool observe_compiled = true;
#endif
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"observability_overhead\",\n");
  std::fprintf(f, "  \"observe_compiled\": %s,\n",
               observe_compiled ? "true" : "false");
  std::fprintf(f, "  \"identity_slots\": %llu,\n",
               static_cast<unsigned long long>(identity_slots));
  std::fprintf(f, "  \"bit_identical_across_sinks\": %s,\n",
               all_identical ? "true" : "false");
  std::fprintf(f, "  \"points\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(f,
                 "    {\"segments\": %d, \"arrivals_per_slot\": %.2f, "
                 "\"requests\": %llu, \"checksum\": %llu, "
                 "\"trace_events\": %llu, \"qoe_requests\": %llu, "
                 "\"nosink_rps\": %.1f, "
                 "\"metrics_rps\": %.1f, \"full_rps\": %.1f, "
                 "\"metrics_overhead\": %.4f, \"full_overhead\": %.4f, "
                 "\"identical\": %s}%s\n",
                 p.segments, p.rate,
                 static_cast<unsigned long long>(p.requests),
                 static_cast<unsigned long long>(p.checksum),
                 static_cast<unsigned long long>(p.trace_events),
                 static_cast<unsigned long long>(p.qoe_requests), p.nosink_rps,
                 p.metrics_rps, p.full_rps, p.metrics_overhead,
                 p.full_overhead, p.same ? "true" : "false",
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::printf("\nwrote %s\n", path.c_str());
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  using vod::Table;
  using vod::format_double;

  bool smoke = false;
  std::string json_path = "BENCH_observability.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      // An unrecognized flag must not be mistaken for the output path
      // (that silently redirects the baseline JSON).
      std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], argv[i]);
      return 2;
    } else {
      json_path = argv[i];
    }
  }

  const std::vector<int> sizes =
      smoke ? std::vector<int>{500} : std::vector<int>{100, 500};
  const std::vector<double> rates = {4.0, 32.0};
  const double min_seconds = smoke ? 0.1 : 0.25;
  // Smoke keeps CI fast; the full run buys more best-of passes because the
  // committed baseline's overheads are read as the design-budget numbers.
  const int reps = smoke ? 3 : 5;
  // Fixed length for the cross-mode (and cross-build) identity runs, so
  // the recorded checksums are comparable everywhere.
  const uint64_t identity_slots = 500;

#ifdef VOD_OBSERVE_DISABLED
  std::printf("== Observability overhead (VOD_OBSERVE=OFF build)%s ==\n",
              smoke ? " (smoke)" : "");
#else
  std::printf("== Observability overhead%s ==\n", smoke ? " (smoke)" : "");
#endif
  std::printf(
      "nosink = no ambient sink (production default); metrics = shard-only\n"
      "sink; full = shard + trace ring + QoE/flight recorder. Each point\n"
      "checks all three modes bit-identical on a shared trace before\n"
      "timing them (one calibrated length, round-robin best-of-%d).\n\n",
      reps);

  std::vector<Point> points;
  bool all_identical = true;
  Table table({"segments", "arrivals/slot", "requests", "nosink req/s",
               "metrics req/s", "full req/s", "metrics ovh", "full ovh",
               "identical"});
  for (int segments : sizes) {
    for (double rate : rates) {
      Point p;
      p.segments = segments;
      p.rate = rate;

      const Run none = run_mode(segments, rate, identity_slots,
                                SinkMode::kNoSink);
      const Run with_metrics =
          run_mode(segments, rate, identity_slots, SinkMode::kMetrics);
      const Run with_full =
          run_mode(segments, rate, identity_slots, SinkMode::kFull);
      p.same = identical(none, with_metrics) && identical(none, with_full);
      all_identical = all_identical && p.same;
      p.checksum = none.checksum;
      p.trace_events = with_full.trace_events;
      p.qoe_requests = with_full.qoe_requests;

      const uint64_t timed_slots = calibrate_slots(segments, rate,
                                                   min_seconds);
      Run t_none, t_metrics, t_full;
      timed_round_robin(segments, rate, timed_slots, reps, &t_none,
                        &t_metrics, &t_full);
      p.requests = t_none.requests;
      p.nosink_rps = rps_of(t_none);
      p.metrics_rps = rps_of(t_metrics);
      p.full_rps = rps_of(t_full);
      p.metrics_overhead =
          1.0 - p.metrics_rps / (p.nosink_rps > 0.0 ? p.nosink_rps : 1e-9);
      p.full_overhead =
          1.0 - p.full_rps / (p.nosink_rps > 0.0 ? p.nosink_rps : 1e-9);

      table.add_row({std::to_string(segments), format_double(rate, 2),
                     std::to_string(p.requests),
                     format_double(p.nosink_rps, 0),
                     format_double(p.metrics_rps, 0),
                     format_double(p.full_rps, 0),
                     format_double(p.metrics_overhead, 3),
                     format_double(p.full_overhead, 3),
                     p.same ? "yes" : "NO"});
      points.push_back(p);
    }
  }
  table.print();
  write_json(json_path, points, identity_slots, all_identical);

  if (!all_identical) {
    std::printf("FAILURE: sink modes diverged — observability fed back into "
                "the simulation\n");
    return 1;
  }
  return 0;
}
