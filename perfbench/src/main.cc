// perfbench: the repository benchmark harness.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//   perfbench --self-test
//
// Runs one workload (README.md explains each) and prints, as its last
// stdout line, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, measured with no
// tracing; --trace 1 runs the traced variant and reports the per-layer
// metrics. A provenance line (compiler, build type, VOD_OBSERVE/VOD_AUDIT,
// nproc) is printed before it. Audit and sanitizer builds are refused.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "harness.h"

namespace perfbench {
namespace {

// Deterministic outputs of every workload at kDefaultSeed.
struct Pin {
  const char* workload;
  Outputs outputs;
};
constexpr Pin kPinned[] = {
    {"cold_tail_catalog",
     {80055, 2648.9217566885404, 2783.0, 5333869777632803186ull}},
    {"hot_admission", {120500, 6.0498, 9.0, 13401113706546658954ull}},
    {"vcr_sessions", {17841, 9.78975, 17.0, 6776654807727034698ull}},
    {"diurnal_observed",
     {197299, 2364.0193439865457, 3367.0, 17963612752031659734ull}},
};

#ifdef VOD_OBSERVE_DISABLED
constexpr bool kObserve = false;
#else
constexpr bool kObserve = true;
#endif
#ifdef VOD_AUDIT
constexpr bool kAudit = true;
#else
constexpr bool kAudit = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    PERFBENCH_SANITIZED
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<cold_tail_catalog|hot_admission|vcr_sessions|"
               "diurnal_observed> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n"
               "       perfbench --self-test\n");
  return 2;
}

bool parse_u64(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

// The harness prints each metric by name; run.py attaches the units from
// BENCHMARK.json and checks the set.
void print_result(const Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.mismatches.empty() && report.failed == 0 ? "true"
                                                              : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  const char* sep = "";
  for (const auto& [name, value] : report.metrics) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

void check_pinned(const Options& opt, const Outputs& got, Report* report) {
  std::fprintf(stderr,
               "perfbench: outputs %s seed %llu: requests=%llu "
               "avg_streams=%.17g max_streams=%.17g checksum=%llu\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               static_cast<unsigned long long>(got.requests), got.avg_streams,
               got.max_streams, static_cast<unsigned long long>(got.checksum));
  if (opt.seed != kDefaultSeed) return;
  for (const Pin& pin : kPinned) {
    if (opt.workload != pin.workload) continue;
    report->check(got == pin.outputs,
                  "outputs differ from the values pinned for the default seed");
    return;
  }
  report->check(false, "no pinned outputs for this workload");
}

namespace {

// A "<key>: <n> kB" line of /proc/self/status, in MB; 0 when absent.
double status_mb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  const size_t len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, len) == 0 && line[len] == ':') {
      mb = std::strtod(line + len + 1, nullptr) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

}  // namespace

// VmHWM rather than getrusage's ru_maxrss: the latter keeps the high-water
// mark of the process image before exec (here, the Python launcher).
double peak_rss_mb() { return status_mb("VmHWM"); }

double current_rss_mb() { return status_mb("VmRSS"); }

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") return run_self_test() == 0 ? 0 : 1;
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    uint64_t v = 0;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, &opt.seed)) return usage();
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, &v) || v < 1 || v > 3600) return usage();
      opt.seconds = static_cast<double>(v);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!parse_u64(value, &v) || v > 1) return usage();
      opt.trace = v == 1;
      have_trace = true;
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else {
      return usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage();
  }

  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("# provenance {\"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"vod_observe\": %s, \"vod_audit\": %s, \"sanitized\": %s, "
              "\"nproc\": %u}\n",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              kObserve ? "true" : "false", kAudit ? "true" : "false",
              kSanitized ? "true" : "false", nproc);
  std::fflush(stdout);
  if (kAudit || kSanitized) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a VOD_AUDIT or sanitizer "
                 "build\n");
    return 3;
  }
  if (!kObserve && opt.workload == "diurnal_observed") {
    std::fprintf(stderr,
                 "perfbench: diurnal_observed needs a VOD_OBSERVE=ON build\n");
    return 3;
  }

  Report report;
  if (opt.workload == "cold_tail_catalog") {
    run_cold_tail_catalog(opt, &report);
  } else if (opt.workload == "hot_admission") {
    run_hot_admission(opt, &report);
  } else if (opt.workload == "vcr_sessions") {
    run_vcr_sessions(opt, &report);
  } else if (opt.workload == "diurnal_observed") {
    run_diurnal_observed(opt, &report);
  } else {
    return usage();
  }
  for (const std::string& m : report.mismatches) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", m.c_str());
  }
  print_result(report);
  return 0;
}
