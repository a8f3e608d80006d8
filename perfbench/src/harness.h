// Shared pieces of the benchmark harness: run options, the report a
// workload fills, checksums, memory probes and the pinned outputs.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// The seed whose deterministic outputs are pinned below. Any other seed is
// a held-out seed: the pins are skipped, the invariants still checked.
inline constexpr uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  // spans and observer reports land here
};

// What one invocation reports. `metrics` holds every end-to-end metric
// (untraced) or the per-layer metrics the workload exercises (traced), by
// the names BENCHMARK.json gives them.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> mismatches;
  std::map<std::string, double> metrics;

  // Records a correctness failure unless `ok`.
  void check(bool ok, const std::string& what) {
    if (!ok) mismatches.push_back(what);
  }
  void set(const std::string& name, double value) { metrics[name] = value; }
};

// FNV-1a over 64-bit words, shaped like bench/multi_video_scale's
// result_checksum.
class Fnv {
 public:
  void mix(uint64_t v) {
    h_ ^= v;
    h_ *= 1099511628211ull;
  }
  void mix_double(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

// Deterministic outputs of one workload for one seed.
struct Outputs {
  uint64_t requests = 0;
  double avg_streams = 0.0;
  double max_streams = 0.0;
  uint64_t checksum = 0;

  bool operator==(const Outputs&) const = default;
};

// Compares `got` with the pinned outputs when the seed is the default one.
void check_pinned(const Options& opt, const Outputs& got, Report* report);

// Process peak resident set (VmHWM) and the current one (VmRSS), from
// /proc/self/status.
double peak_rss_mb();
double current_rss_mb();

// Workload entry points. Each fills `report` for the mode in `opt`.
void run_cold_tail_catalog(const Options& opt, Report* report);
void run_diurnal_observed(const Options& opt, Report* report);
void run_hot_admission(const Options& opt, Report* report);
void run_vcr_sessions(const Options& opt, Report* report);

// Unit tests of the summariser and tracer; returns the number of failures.
int run_self_test();

}  // namespace perfbench
