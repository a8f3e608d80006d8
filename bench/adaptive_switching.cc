// Adaptive protocol switching under a diurnal demand curve.
//
// Each point runs one Zipf catalog over the §1 day/night sinusoid (400:1
// peak-to-trough per point scale) four ways through the *same* engine
// code path: the adaptive ladder (EWMA + hysteresis controller,
// server/adaptive_video.h) and the three pinned ladders — reactive
// (kLatest), DHB (kMinLoadLatest) and static NPB — i.e. the uniform
// protocol pins an operator could deploy instead. The figure of merit is
// provisioned bandwidth: the mean per-window (~1 h) peak stream count per
// video, summed over the catalog (the paper's Figure 8 metric; DESIGN.md
// §13).
//
// Reported per point:
//   * adaptive vs the per-video *frontier* — sum over videos of the best
//     pin for that video. frontier_ratio = adaptive / frontier must stay
//     <= 1.05: switching tracks the per-rate-optimal static choice.
//   * adaptive vs the *worst* uniform pin. worst_pin_ratio must stay
//     <= 0.80: adapting is much cheaper than pinning wrong.
//   * bit identity: the adaptive run repeated at every thread count must
//     produce FNV-identical per-video provisioned/request/switch vectors.
//   * a migration gap audit: the hottest rank re-run standalone with a
//     TransitionAuditor probe over the same diurnal arrivals —
//     gap_violations (kTransitionCoverageGap et al.) is required to be 0
//     while the controller switches on its own.
//   * write-only observation: the adaptive run repeated with an
//     EngineObserver attached must keep the same checksum (qoe_write_only
//     — recording metrics, trace events and controller decisions must
//     never feed back). Its QoE is not reported: every rung starts a
//     client one slot after it arrives and misses no deadline.
//
// scripts/bench_compare.py re-checks all of the above from the committed
// JSON and compares checksums across regenerations of matching points.
//
// Usage: adaptive_switching [--smoke] [output.json]
//   Writes BENCH_adaptive.json (or the given path) next to the table.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/transition_auditor.h"
#include "obs/trace.h"
#include "protocols/npb.h"
#include "server/adaptive_video.h"
#include "server/multi_video.h"
#include "sim/arrival_process.h"
#include "sim/random.h"
#include "sim/zipf.h"
#include "util/table.h"

namespace {

using vod::AdaptiveVideo;
using vod::AdaptiveVideoConfig;
using vod::MultiVideoConfig;
using vod::MultiVideoResult;
using vod::NonHomogeneousPoissonProcess;
using vod::NpbMapping;
using vod::Rng;
using vod::TransitionAuditor;
using vod::VideoPolicy;
using vod::ZipfDistribution;

constexpr uint64_t kSeed = 20010416;
constexpr int kModes = 3;  // reactive / dhb / static rungs

// One demand scale on the diurnal curve. The catalog, horizon and window
// are shared; only the aggregate off-peak/peak rates sweep.
struct Workload {
  int catalog = 12;
  int segments = 99;
  double off_peak_per_hour = 8.0;    // aggregate trough rate
  double peak_per_hour = 1600.0;     // aggregate prime-time rate
  double warmup_hours = 12.0;
  double measured_hours = 96.0;      // four diurnal cycles
  uint64_t provision_window_slots = 50;  // ~1 h at the 72.7 s slot
};

struct PolicyRun {
  double provisioned_total = 0.0;
  std::vector<double> per_video;  // provisioned streams per rank
  uint64_t requests = 0;
  uint64_t switches = 0;
  uint64_t checksum = 0;
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

MultiVideoConfig engine_config(const Workload& w) {
  MultiVideoConfig c;
  c.catalog_size = w.catalog;
  c.num_segments = w.segments;
  c.policy = VideoPolicy::kAdaptive;
  c.total_requests_per_hour = w.off_peak_per_hour;
  c.diurnal_peak_requests_per_hour = w.peak_per_hour;
  c.warmup_hours = w.warmup_hours;
  c.measured_hours = w.measured_hours;
  c.provision_window_slots = w.provision_window_slots;
  c.seed = kSeed;
  return c;
}

// Runs the engine with the ladder either free (pin < 0) or pinned to one
// rung — the uniform-protocol baselines ride the identical code path, so
// the comparison isolates the switching decision itself. With an observer
// attached the run also accumulates per-request QoE; the checksum is
// computed identically either way, which is how the bench proves the QoE
// layer is write-only.
PolicyRun run_policy(const Workload& w, int pin, int threads,
                     vod::obs::EngineObserver* observer = nullptr) {
  MultiVideoConfig c = engine_config(w);
  c.num_threads = threads;
  c.observer = observer;
  if (pin >= 0) {
    c.adaptive.controller.initial_mode = pin;
    c.adaptive.controller.min_mode = pin;
    c.adaptive.controller.max_mode = pin;
  }
  const MultiVideoResult r = run_multi_video_simulation(c);

  PolicyRun run;
  run.per_video = r.per_video_provisioned;
  for (double p : r.per_video_provisioned) run.provisioned_total += p;
  run.requests = r.requests;
  for (uint64_t s : r.per_video_switches) run.switches += s;
  run.checksum = 1469598103934665603ull;  // FNV-1a offset basis
  mix(r.requests, &run.checksum);
  for (double p : r.per_video_provisioned) mix_double(p, &run.checksum);
  for (double a : r.per_video_avg) mix_double(a, &run.checksum);
  for (uint64_t q : r.per_video_requests) mix(q, &run.checksum);
  for (uint64_t s : r.per_video_switches) mix(s, &run.checksum);
  return run;
}

struct GapAudit {
  uint64_t transitions = 0;
  uint64_t violations = 0;
  uint64_t receptions = 0;
  uint64_t pending = 0;
  uint64_t switches = 0;
};

// Re-runs one rank standalone with the TransitionAuditor attached: the
// same diurnal arrival law the engine uses (that rank's Zipf share, same
// substream construction), the controller free-running. The auditor checks
// every committed reception against the merged transmissions, so a single
// missed slot anywhere across the run's migrations fails the bench.
GapAudit run_gap_audit_rank(const Workload& w, int rank) {
  const MultiVideoConfig c = engine_config(w);
  const ZipfDistribution zipf(w.catalog, c.zipf_exponent);
  const double share = zipf.probability(rank);

  TransitionAuditor auditor;
  const NpbMapping mapping =
      *NpbMapping::build(NpbMapping::streams_for(w.segments), w.segments);
  AdaptiveVideoConfig acfg = c.adaptive;
  acfg.num_segments = w.segments;
  AdaptiveVideo video(acfg, &mapping, &auditor);

  NonHomogeneousPoissonProcess arrivals(
      vod::daily_demand_curve(w.off_peak_per_hour * share,
                              w.peak_per_hour * share),
      vod::per_hour(w.peak_per_hour * share),
      Rng(kSeed).fork(static_cast<uint64_t>(rank) + 1));
  const double d = c.slot_duration_s;
  const uint64_t slots = static_cast<uint64_t>(
      std::ceil((w.warmup_hours + w.measured_hours) * 3600.0 / d));

  double next_arrival = arrivals.next();
  for (uint64_t step = 1; step <= slots; ++step) {
    video.advance_slot();
    const double slot_end = static_cast<double>(step) * d;
    uint64_t batch = 0;
    while (next_arrival < slot_end) {
      ++batch;
      next_arrival = arrivals.next();
    }
    video.on_slot_arrivals(batch);
  }
  // Drain: no further admissions; every committed reception is due within
  // one static window / dynamic plan horizon (<= segments slots).
  for (int i = 0; i < 2 * w.segments + 2; ++i) {
    video.advance_slot();
    video.on_slot_arrivals(0);
  }

  GapAudit audit;
  audit.transitions = auditor.transitions_seen();
  audit.violations = auditor.report().violations.size();
  audit.receptions = auditor.receptions_checked();
  audit.pending = auditor.pending_receptions();
  audit.switches = video.switches();
  if (!auditor.report().ok()) {
    std::fprintf(stderr, "gap audit violations (rank %d):\n%s\n", rank,
                 auditor.report().to_string().c_str());
  }
  return audit;
}

// Audits the two extremes of the catalog: the hottest rank (static almost
// all day; the dynamic->static commit and its drain) and the coldest (it
// crosses the static boundary every evening, so it exercises round trips
// daily).
GapAudit run_gap_audit(const Workload& w) {
  GapAudit total;
  for (int rank : {0, w.catalog - 1}) {
    const GapAudit one = run_gap_audit_rank(w, rank);
    total.transitions += one.transitions;
    total.violations += one.violations;
    total.receptions += one.receptions;
    total.pending += one.pending;
    total.switches += one.switches;
  }
  return total;
}

struct Point {
  Workload workload;
  double peak_arrivals_per_slot = 0.0;
  uint64_t requests = 0;
  double adaptive_provisioned = 0.0;
  double pin_provisioned[kModes] = {0.0, 0.0, 0.0};
  double frontier_provisioned = 0.0;
  double worst_pin_provisioned = 0.0;
  double frontier_ratio = 0.0;
  double worst_pin_ratio = 0.0;
  uint64_t switches = 0;
  uint64_t checksum = 0;
  bool bit_identical = false;
  bool qoe_write_only = false;
  GapAudit audit;
};

void write_json(const std::string& path, const std::vector<Point>& points,
                const std::vector<int>& threads, bool all_identical,
                bool all_gap_free) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::string thread_list;
  for (size_t i = 0; i < threads.size(); ++i) {
    thread_list += (i > 0 ? ", " : "") + std::to_string(threads[i]);
  }
  std::fprintf(f, "{\n  \"benchmark\": \"adaptive_switching\",\n");
  std::fprintf(f, "  \"threads\": [%s],\n", thread_list.c_str());
  std::fprintf(f, "  \"bit_identical_across_threads\": %s,\n",
               all_identical ? "true" : "false");
  std::fprintf(f, "  \"gap_free\": %s,\n", all_gap_free ? "true" : "false");
  std::fprintf(f, "  \"points\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    const Workload& w = p.workload;
    std::fprintf(
        f,
        "    {\"segments\": %d, \"arrivals_per_slot\": %.4f, "
        "\"catalog\": %d, \"off_peak_per_hour\": %.2f, "
        "\"peak_per_hour\": %.2f, \"measured_hours\": %.1f, "
        "\"requests\": %llu, \"adaptive_provisioned\": %.4f, "
        "\"reactive_pin_provisioned\": %.4f, \"dhb_pin_provisioned\": %.4f, "
        "\"static_pin_provisioned\": %.4f, \"frontier_provisioned\": %.4f, "
        "\"worst_pin_provisioned\": %.4f, \"frontier_ratio\": %.4f, "
        "\"worst_pin_ratio\": %.4f, \"switches\": %llu, "
        "\"gap_transitions\": %llu, \"gap_violations\": %llu, "
        "\"gap_receptions\": %llu, \"checksum\": %llu, "
        "\"bit_identical\": %s, \"qoe_write_only\": %s}%s\n",
        w.segments, p.peak_arrivals_per_slot, w.catalog, w.off_peak_per_hour,
        w.peak_per_hour, w.measured_hours,
        static_cast<unsigned long long>(p.requests), p.adaptive_provisioned,
        p.pin_provisioned[0], p.pin_provisioned[1], p.pin_provisioned[2],
        p.frontier_provisioned, p.worst_pin_provisioned, p.frontier_ratio,
        p.worst_pin_ratio, static_cast<unsigned long long>(p.switches),
        static_cast<unsigned long long>(p.audit.transitions),
        static_cast<unsigned long long>(p.audit.violations),
        static_cast<unsigned long long>(p.audit.receptions),
        static_cast<unsigned long long>(p.checksum),
        p.bit_identical ? "true" : "false",
        p.qoe_write_only ? "true" : "false",
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
  std::string json_path = "BENCH_adaptive.json";
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

  // Aggregate (off-peak, peak) demand scales — three day/night swing
  // ratios (50:1, 20:1, 10:1) across which the ladder keeps switching for
  // real (~1 round trip per video per day) while every guard holds. The
  // mid point is shared by smoke and full runs so bench_compare can match
  // checksums across them.
  std::vector<Workload> workloads(smoke ? 1 : 3);
  if (smoke) {
    workloads[0].off_peak_per_hour = 120.0;
    workloads[0].peak_per_hour = 2400.0;
  } else {
    workloads[0].off_peak_per_hour = 60.0;
    workloads[0].peak_per_hour = 3000.0;
    workloads[1].off_peak_per_hour = 120.0;
    workloads[1].peak_per_hour = 2400.0;
    workloads[2].off_peak_per_hour = 160.0;
    workloads[2].peak_per_hour = 1600.0;
  }
  const std::vector<int> threads =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};

  std::printf("== Adaptive protocol switching%s ==\n", smoke ? " (smoke)" : "");
  std::printf(
      "Diurnal sinusoid (peak 21:00, trough 09:00), Zipf catalog; adaptive\n"
      "ladder vs the three uniform pins through the identical engine path.\n"
      "provisioned = mean per-window peak streams, summed over videos.\n\n");

  std::vector<Point> points;
  bool all_identical = true;
  bool all_write_only = true;
  bool all_gap_free = true;
  Table table({"peak arr/slot", "requests", "adaptive", "reactive pin",
               "dhb pin", "static pin", "frontier", "frontier ratio",
               "worst-pin ratio", "switches", "gaps", "identical",
               "qoe w/o"});
  for (const Workload& w : workloads) {
    Point p;
    p.workload = w;
    p.peak_arrivals_per_slot = w.peak_per_hour * 72.7 / 3600.0;

    const PolicyRun adaptive = run_policy(w, /*pin=*/-1, threads[0]);
    p.requests = adaptive.requests;
    p.adaptive_provisioned = adaptive.provisioned_total;
    p.switches = adaptive.switches;
    p.checksum = adaptive.checksum;
    p.bit_identical = true;
    for (size_t t = 1; t < threads.size(); ++t) {
      const PolicyRun again = run_policy(w, /*pin=*/-1, threads[t]);
      p.bit_identical = p.bit_identical && again.checksum == adaptive.checksum;
    }
    all_identical = all_identical && p.bit_identical;

    // Observed re-run: an EngineObserver must be write-only —
    // bit-identical checksum to the unobserved run above.
    vod::obs::EngineObserver observer;
    const PolicyRun observed =
        run_policy(w, /*pin=*/-1, threads[0], &observer);
    p.qoe_write_only = observed.checksum == adaptive.checksum;
    all_write_only = all_write_only && p.qoe_write_only;

    std::vector<PolicyRun> pins;
    pins.reserve(kModes);
    for (int m = 0; m < kModes; ++m) {
      pins.push_back(run_policy(w, m, threads[0]));
      p.pin_provisioned[m] = pins.back().provisioned_total;
      p.worst_pin_provisioned =
          std::max(p.worst_pin_provisioned, pins.back().provisioned_total);
    }
    for (int v = 0; v < w.catalog; ++v) {
      double best = pins[0].per_video[static_cast<size_t>(v)];
      for (int m = 1; m < kModes; ++m) {
        best = std::min(best, pins[static_cast<size_t>(m)]
                                  .per_video[static_cast<size_t>(v)]);
      }
      p.frontier_provisioned += best;
    }
    p.frontier_ratio =
        p.adaptive_provisioned /
        (p.frontier_provisioned > 0.0 ? p.frontier_provisioned : 1e-9);
    p.worst_pin_ratio =
        p.adaptive_provisioned /
        (p.worst_pin_provisioned > 0.0 ? p.worst_pin_provisioned : 1e-9);

    p.audit = run_gap_audit(w);
    all_gap_free = all_gap_free && p.audit.violations == 0 &&
                   p.audit.pending == 0 && p.audit.transitions > 0;

    table.add_row({format_double(p.peak_arrivals_per_slot, 2),
                   std::to_string(p.requests),
                   format_double(p.adaptive_provisioned, 2),
                   format_double(p.pin_provisioned[0], 2),
                   format_double(p.pin_provisioned[1], 2),
                   format_double(p.pin_provisioned[2], 2),
                   format_double(p.frontier_provisioned, 2),
                   format_double(p.frontier_ratio, 3),
                   format_double(p.worst_pin_ratio, 3),
                   std::to_string(p.switches),
                   std::to_string(p.audit.violations),
                   p.bit_identical ? "yes" : "NO",
                   p.qoe_write_only ? "yes" : "NO"});
    points.push_back(p);
  }
  table.print();
  write_json(json_path, points, threads, all_identical, all_gap_free);

  bool ok = all_identical && all_gap_free;
  for (const Point& p : points) {
    if (p.frontier_ratio > 1.05) {
      std::printf("FAILURE: frontier ratio %.3f > 1.05 at peak %.2f/slot\n",
                  p.frontier_ratio, p.peak_arrivals_per_slot);
      ok = false;
    }
    if (p.worst_pin_ratio > 0.80) {
      std::printf("FAILURE: worst-pin ratio %.3f > 0.80 at peak %.2f/slot\n",
                  p.worst_pin_ratio, p.peak_arrivals_per_slot);
      ok = false;
    }
  }
  if (!all_identical) {
    std::printf("FAILURE: thread counts diverged — the shard decomposition "
                "leaked state\n");
  }
  if (!all_write_only) {
    std::printf("FAILURE: attaching the QoE observer changed the "
                "simulation\n");
    ok = false;
  }
  if (!all_gap_free) {
    std::printf("FAILURE: migration gap audit found violations\n");
  }
  return ok ? 0 : 1;
}
