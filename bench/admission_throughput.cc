// Single-video admission throughput: the sub-quadratic hot path (range-min
// placement index + same-slot coalescing) against the naive Figure 6 scans
// it replaces, across video sizes and Poisson arrival rates.
//
// Every point first replays one identical arrival trace through both modes
// and insists on bit-identical results (lifetime counters plus an FNV
// checksum over every transmission and admitted plan); only then is each
// mode timed separately, auto-scaling its slot count until the measurement
// is long enough to trust. requests/sec is admissions completed per wall
// second, advance_slot_view() included; `speedup` (fast / naive) is the
// machine-portable metric the CI regression guard tracks.
//
// Usage: admission_throughput [--smoke] [output.json]
//   --smoke  quick CI variant: small videos, short measurements.
//   Writes a machine-readable record to BENCH_admission.json (or the given
//   path) next to the human-readable table.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/dhb.h"
#include "sim/random.h"
#include "util/table.h"

namespace {

using vod::DhbConfig;
using vod::DhbRequestResult;
using vod::DhbScheduler;
using vod::Rng;
using vod::Segment;

constexpr uint64_t kSeed = 20010416;

struct Run {
  double seconds = 0.0;
  uint64_t requests = 0;
  uint64_t new_instances = 0;
  uint64_t shared = 0;
  uint64_t probes = 0;
  uint64_t work_units = 0;
  uint64_t checksum = 0;
};

DhbConfig mode_config(int segments, bool fast) {
  DhbConfig config;
  config.num_segments = segments;
  config.use_placement_index = fast;
  config.coalesce_same_slot = fast;
  return config;
}

// Replays `slots` slots of Poisson(rate) same-slot arrival batches. The
// naive mode admits the batch one request at a time — exactly the pre-PR
// admission loop; the fast mode uses on_request_batch. The checksum folds
// in every transmitted segment and every admitted plan (the batch head's
// plan is every follower's plan, so hashing it once per batch covers all).
Run run_mode(int segments, double rate, uint64_t slots, bool fast) {
  DhbScheduler scheduler(mode_config(segments, fast));
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
    DhbRequestResult last;
    if (fast) {
      last = scheduler.on_request_batch(batch);
    } else {
      for (uint64_t i = 0; i < batch; ++i) last = scheduler.on_request();
    }
    mix(batch);
    for (vod::Slot s : last.plan.reception_slot) {
      mix(static_cast<uint64_t>(s));
    }
  }
  const auto end = std::chrono::steady_clock::now();

  Run run;
  run.seconds = std::chrono::duration<double>(end - start).count();
  run.requests = scheduler.total_requests();
  run.new_instances = scheduler.total_new_instances();
  run.shared = scheduler.total_shared();
  run.probes = scheduler.total_slot_probes();
  run.work_units = scheduler.total_work_units();
  run.checksum = checksum;
  return run;
}

bool identical(const Run& a, const Run& b) {
  // work_units intentionally differs between modes; everything observable
  // must not.
  return a.requests == b.requests && a.new_instances == b.new_instances &&
         a.shared == b.shared && a.probes == b.probes &&
         a.checksum == b.checksum;
}

double rps_of(const Run& run) {
  return static_cast<double>(run.requests) /
         (run.seconds > 0.0 ? run.seconds : 1e-9);
}

// Times one mode: grows the slot count geometrically until a single run is
// long enough to trust, then takes the best of `reps` repetitions at that
// length. Best-of filters scheduler/cache interference, which otherwise
// dominates the fast mode's sub-microsecond admissions.
Run timed_run(int segments, double rate, bool fast, double min_seconds,
              int reps) {
  uint64_t slots = 256;
  Run best = run_mode(segments, rate, slots, fast);
  while (best.seconds < min_seconds && slots < (1ull << 24)) {
    double grow = best.seconds > 0.0 ? (1.5 * min_seconds) / best.seconds : 8.0;
    if (grow < 2.0) grow = 2.0;
    if (grow > 16.0) grow = 16.0;
    slots = slots * static_cast<uint64_t>(grow);
    best = run_mode(segments, rate, slots, fast);
  }
  for (int r = 1; r < reps; ++r) {
    const Run again = run_mode(segments, rate, slots, fast);
    if (rps_of(again) > rps_of(best)) best = again;
  }
  return best;
}

struct Point {
  int segments = 0;
  double rate = 0.0;
  uint64_t requests = 0;
  double fast_rps = 0.0;
  double naive_rps = 0.0;
  double speedup = 0.0;
  // Deterministic algorithmic-cost metrics from the fixed-length identity
  // runs: identical on every machine, every run. work_ratio is the CI
  // guard's primary metric — it moves iff the algorithm itself changes.
  double fast_work_per_req = 0.0;
  double naive_work_per_req = 0.0;
  double work_ratio = 0.0;
  double probes_per_req = 0.0;
  bool same = false;
};

void write_json(const std::string& path, const std::vector<Point>& points,
                bool all_identical) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"admission_throughput\",\n");
  std::fprintf(f, "  \"bit_identical_fast_vs_naive\": %s,\n",
               all_identical ? "true" : "false");
  std::fprintf(f, "  \"points\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(f,
                 "    {\"segments\": %d, \"arrivals_per_slot\": %.2f, "
                 "\"requests\": %llu, \"fast_rps\": %.1f, "
                 "\"naive_rps\": %.1f, \"speedup\": %.3f, "
                 "\"fast_work_per_req\": %.4f, "
                 "\"naive_work_per_req\": %.4f, \"work_ratio\": %.4f, "
                 "\"probes_per_req\": %.1f, \"identical\": %s}%s\n",
                 p.segments, p.rate,
                 static_cast<unsigned long long>(p.requests), p.fast_rps,
                 p.naive_rps, p.speedup, p.fast_work_per_req,
                 p.naive_work_per_req, p.work_ratio, p.probes_per_req,
                 p.same ? "true" : "false", i + 1 < points.size() ? "," : "");
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
  std::string json_path = "BENCH_admission.json";
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
      smoke ? std::vector<int>{20, 100} : std::vector<int>{20, 100, 500, 2000};
  const std::vector<double> rates = {0.25, 4.0, 32.0};
  const double min_seconds = smoke ? 0.05 : 0.2;
  const int reps = 3;
  // Same length in smoke and full mode, so the deterministic work_ratio the
  // CI guard compares is computed over the exact same trace everywhere.
  const uint64_t identity_slots = 500;

  std::printf("== Single-video admission throughput%s ==\n",
              smoke ? " (smoke)" : "");
  std::printf(
      "fast = range-min placement index + same-slot coalescing;\n"
      "naive = the pre-PR linear Figure 6 scans. Each point checks the two\n"
      "modes bit-identical on a shared trace before timing them.\n\n");

  std::vector<Point> points;
  bool all_identical = true;
  Table table({"segments", "arrivals/slot", "requests", "fast req/s",
               "naive req/s", "speedup", "work ratio", "identical"});
  for (int segments : sizes) {
    for (double rate : rates) {
      Point p;
      p.segments = segments;
      p.rate = rate;

      const Run check_fast = run_mode(segments, rate, identity_slots, true);
      const Run check_naive = run_mode(segments, rate, identity_slots, false);
      p.same = identical(check_fast, check_naive);
      all_identical = all_identical && p.same;
      if (check_fast.requests > 0) {
        p.fast_work_per_req = static_cast<double>(check_fast.work_units) /
                              static_cast<double>(check_fast.requests);
        p.naive_work_per_req = static_cast<double>(check_naive.work_units) /
                               static_cast<double>(check_naive.requests);
        p.work_ratio = p.naive_work_per_req /
                       (p.fast_work_per_req > 0.0 ? p.fast_work_per_req : 1.0);
        p.probes_per_req = static_cast<double>(check_fast.probes) /
                           static_cast<double>(check_fast.requests);
      }

      const Run fast = timed_run(segments, rate, true, min_seconds, reps);
      const Run naive = timed_run(segments, rate, false, min_seconds, reps);
      p.requests = fast.requests;
      p.fast_rps = rps_of(fast);
      p.naive_rps = rps_of(naive);
      p.speedup = p.fast_rps / (p.naive_rps > 0.0 ? p.naive_rps : 1e-9);

      table.add_row({std::to_string(segments), format_double(rate, 2),
                     std::to_string(p.requests), format_double(p.fast_rps, 0),
                     format_double(p.naive_rps, 0),
                     format_double(p.speedup, 2),
                     format_double(p.work_ratio, 2), p.same ? "yes" : "NO"});
      points.push_back(p);
    }
  }
  table.print();
  write_json(json_path, points, all_identical);

  if (!all_identical) {
    std::printf("FAILURE: fast and naive admission modes diverged\n");
    return 1;
  }
  return 0;
}
