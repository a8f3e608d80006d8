// Scaling of the sharded multi-video engine: requests/sec, slots/sec and
// parallel speedup for 100 / 1,000 / 10,000 / 1,000,000-video Zipf catalogs
// at 1 / 2 / 4 / 8 threads, with a built-in bit-identity check (every
// thread count must reproduce the 1-thread result exactly — see DESIGN.md
// §8) folded into a per-point FNV checksum over every per-video figure.
//
// requests/sec (measured requests per wall second) is the headline: the
// engine jumps the empty spans of a video's horizon, so slots/sec counts
// video-slots it never stepped, and grows with the catalog while the
// requests stay at about 40,000 per point.
//
// The checksum is a deterministic function of the scheduling decisions on
// a fixed seed, so it doubles as the slab-layout identity proof: the
// data-oriented slot kernel (DESIGN.md §14) must reproduce the legacy
// vector-of-vectors layout's checksums bit for bit, and
// scripts/bench_compare.py compares them across regenerations against the
// committed BENCH_multi_video.json.
//
// Usage: multi_video_scale [--smoke] [output.json]
//   --smoke  quick CI variant: smallest catalog only, 1 and 2 threads —
//   but the SAME workload parameters as the full grid, so the smoke
//   points replay committed baseline points exactly (checksums match).
//   Writes a machine-readable record to BENCH_multi_video.json (or the
//   given path) next to the human-readable table.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "server/multi_video.h"
#include "util/table.h"

namespace {

using vod::MultiVideoConfig;
using vod::MultiVideoResult;

struct Measurement {
  int catalog = 0;
  int threads = 0;
  double seconds = 0.0;
  double requests_per_sec = 0.0;  // measured requests per wall second
  double slots_per_sec = 0.0;     // video-slots simulated per wall second
  double speedup = 1.0;           // vs the 1-thread run of the same catalog
  double avg_streams = 0.0;
  double max_streams = 0.0;
  uint64_t requests = 0;
  uint64_t checksum = 0;          // FNV-1a over every per-video figure
};

void mix(uint64_t v, uint64_t* checksum) {
  *checksum ^= v;
  *checksum *= 1099511628211ull;  // FNV prime
}

void mix_double(double v, uint64_t* checksum) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  mix(bits, checksum);
}

uint64_t result_checksum(const MultiVideoResult& r) {
  uint64_t checksum = 1469598103934665603ull;  // FNV-1a offset basis
  mix(r.requests, &checksum);
  mix(r.measured_slots, &checksum);
  mix_double(r.avg_streams, &checksum);
  mix_double(r.max_streams, &checksum);
  mix_double(r.avg_kbs, &checksum);
  mix_double(r.max_kbs, &checksum);
  for (double a : r.per_video_avg) mix_double(a, &checksum);
  for (uint64_t q : r.per_video_requests) mix(q, &checksum);
  return checksum;
}

MultiVideoConfig scale_config(int catalog) {
  MultiVideoConfig c;
  c.catalog_size = catalog;
  c.num_segments = 99;
  c.total_requests_per_hour = 2000.0;
  c.warmup_hours = 2.0;
  c.measured_hours = 20.0;
  c.seed = 20010416;
  return c;
}

bool identical(const MultiVideoResult& a, const MultiVideoResult& b) {
  return a.avg_streams == b.avg_streams && a.max_streams == b.max_streams &&
         a.avg_kbs == b.avg_kbs && a.max_kbs == b.max_kbs &&
         a.requests == b.requests && a.measured_slots == b.measured_slots &&
         a.per_video_avg == b.per_video_avg &&
         a.per_video_requests == b.per_video_requests;
}

// Runs one grid point into *result; the point itself keeps only the
// checksum and the scalars, so the grid does not hold every point's
// per-video vectors (24 MB a point at 1M videos).
Measurement run_point(int catalog, int threads, MultiVideoResult* result) {
  MultiVideoConfig c = scale_config(catalog);
  c.num_threads = threads;
  const auto start = std::chrono::steady_clock::now();
  *result = run_multi_video_simulation(c);
  const auto end = std::chrono::steady_clock::now();
  Measurement m;
  m.catalog = catalog;
  m.threads = threads;
  m.seconds = std::chrono::duration<double>(end - start).count();
  m.avg_streams = result->avg_streams;
  m.max_streams = result->max_streams;
  m.requests = result->requests;
  m.checksum = result_checksum(*result);
  m.requests_per_sec = static_cast<double>(m.requests) /
                       (m.seconds > 0.0 ? m.seconds : 1e-9);
  const double total_slots =
      static_cast<double>(result->measured_slots) +
      std::ceil(c.warmup_hours * 3600.0 / c.slot_duration_s);
  m.slots_per_sec = total_slots * static_cast<double>(catalog) /
                    (m.seconds > 0.0 ? m.seconds : 1e-9);
  return m;
}

void write_json(const std::string& path,
                const std::vector<Measurement>& points, bool all_identical) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"multi_video_scale\",\n");
  std::fprintf(f, "  \"bit_identical_across_threads\": %s,\n",
               all_identical ? "true" : "false");
  std::fprintf(f, "  \"points\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const Measurement& m = points[i];
    std::fprintf(f,
                 "    {\"catalog\": %d, \"threads\": %d, "
                 "\"seconds\": %.6f, \"requests_per_s\": %.1f, "
                 "\"slots_per_sec\": %.1f, "
                 "\"speedup\": %.3f, \"avg_streams\": %.6f, "
                 "\"max_streams\": %.1f, \"requests\": %llu, "
                 "\"checksum\": %llu}%s\n",
                 m.catalog, m.threads, m.seconds, m.requests_per_sec,
                 m.slots_per_sec, m.speedup, m.avg_streams, m.max_streams,
                 static_cast<unsigned long long>(m.requests),
                 static_cast<unsigned long long>(m.checksum),
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vod;

  bool smoke = false;
  std::string json_path = "BENCH_multi_video.json";
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

  const std::vector<int> catalogs =
      smoke ? std::vector<int>{100}
            : std::vector<int>{100, 1000, 10000, 1000000};
  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};

  std::printf("== Sharded multi-video engine scaling%s ==\n",
              smoke ? " (smoke)" : "");
  std::printf(
      "Zipf(0.729) catalog, 2000 req/h aggregate, DHB per video;\n"
      "requests/sec = measured requests per wall second; slots/sec =\n"
      "video-slots simulated per wall second, empty spans included;\n"
      "speedup vs the 1-thread run; results must be bit-identical at\n"
      "every thread count.\n\n");

  std::vector<Measurement> points;
  bool all_identical = true;
  Table table({"catalog", "threads", "seconds", "requests/sec", "slots/sec",
               "speedup", "identical"});
  for (int catalog : catalogs) {
    // The 1-thread run's full result: every other thread count must
    // reproduce it.
    MultiVideoResult baseline;
    double baseline_seconds = 0.0;
    for (int threads : thread_counts) {
      MultiVideoResult result;
      Measurement m = run_point(catalog, threads, &result);
      bool same = true;
      if (threads == 1) {
        baseline_seconds = m.seconds;
        baseline = std::move(result);
      } else {
        m.speedup = baseline_seconds / (m.seconds > 0.0 ? m.seconds : 1e-9);
        same = identical(baseline, result);
      }
      all_identical = all_identical && same;
      table.add_row({std::to_string(catalog), std::to_string(threads),
                     format_double(m.seconds, 3),
                     format_double(m.requests_per_sec, 0),
                     format_double(m.slots_per_sec, 0),
                     format_double(m.speedup, 2), same ? "yes" : "NO"});
      points.push_back(m);
    }
  }
  table.print();
  write_json(json_path, points, all_identical);

  if (!all_identical) {
    std::printf("FAILURE: results differ across thread counts\n");
    return 1;
  }
  return 0;
}
