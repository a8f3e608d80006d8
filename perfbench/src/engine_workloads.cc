// The two engine workloads: the whole catalog runs behind one
// run_multi_video_simulation() call, so the benchmark times calls, not
// slots.
//
//   cold_tail_catalog — 10k-video Zipf catalog, DHB on every video, flat
//     Poisson demand: most videos see a handful of requests, so idle
//     stepping and per-video construction dominate.
//   diurnal_observed — 1k-video kAdaptive catalog under the §1 diurnal
//     curve, provisioned-window accounting on and an EngineObserver
//     attached; after each call the observer's shards are merged and its
//     metrics, trace, QoE and SLO reports written.
//
// Untraced run: the median of several horizon-0 calls is setup_s; then the
// full call repeats on the same inputs until the time budget is spent, and
// requests_per_s is the median over calls of measured requests per host
// second. Every call must reproduce the first one's outputs, and a 1-thread
// call must reproduce the 2-thread one bit for bit.
//
// Traced run: the engine's layers sit behind one call, so their costs come
// from differential calls (horizon 0; arrival rate 0, i.e. pure idle
// stepping; 1 versus 2 threads), from catalog-wide work counts an observed
// call exports, and from a spanned replay of the hottest videos through the
// per-video public API (DhbScheduler or AdaptiveVideo fed by the same
// arrival process on the same Rng(seed).fork(rank + 1) substream). The
// replay must reproduce those videos' per_video_requests and per_video_avg
// exactly. Layer cost = catalog count x replay mean; what the layers do not
// explain of the 1-thread call is engine.unaccounted_fraction.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/export.h"
#include "obs/qoe.h"
#include "obs/trace.h"
#include "protocols/npb.h"
#include "server/adaptive_video.h"
#include "server/multi_video.h"
#include "sim/arrival_process.h"
#include "sim/random.h"
#include "sim/zipf.h"
#include "summary.h"
#include "tracer.h"

namespace perfbench {
namespace {

constexpr size_t kStoredSpans = size_t{1} << 20;
constexpr int kSetupPerCall = 3;  // horizon-0 calls per timed call

struct EngineSpec {
  vod::MultiVideoConfig config;  // observer left null; attached per call
  bool observed = false;         // attach an observer and write its report
  int replay_videos = 0;         // hottest ranks replayed in the traced run
};

EngineSpec cold_tail_spec(uint64_t seed) {
  EngineSpec spec;
  vod::MultiVideoConfig& c = spec.config;
  c.catalog_size = 10000;
  c.num_segments = 99;
  c.total_requests_per_hour = 2000.0;
  c.warmup_hours = 4.0;
  c.measured_hours = 40.0;
  c.policy = vod::VideoPolicy::kDhb;
  c.num_threads = 1;
  c.seed = seed;
  spec.replay_videos = 640;
  return spec;
}

EngineSpec diurnal_spec(uint64_t seed) {
  EngineSpec spec;
  vod::MultiVideoConfig& c = spec.config;
  c.catalog_size = 1000;
  c.num_segments = 99;
  c.total_requests_per_hour = 400.0;
  c.diurnal_peak_requests_per_hour = 16000.0;
  c.warmup_hours = 6.0;
  c.measured_hours = 24.0;
  c.provision_window_slots = 50;  // ~1 h at the 72.7 s slot
  c.policy = vod::VideoPolicy::kAdaptive;
  c.num_threads = 1;
  c.seed = seed;
  spec.observed = true;
  spec.replay_videos = 1000;
  return spec;
}

uint64_t result_checksum(const vod::MultiVideoResult& r) {
  Fnv fnv;
  fnv.mix(r.requests);
  fnv.mix(r.measured_slots);
  fnv.mix_double(r.avg_streams);
  fnv.mix_double(r.max_streams);
  fnv.mix_double(r.avg_kbs);
  fnv.mix_double(r.max_kbs);
  for (double a : r.per_video_avg) fnv.mix_double(a);
  for (uint64_t q : r.per_video_requests) fnv.mix(q);
  for (double p : r.per_video_provisioned) fnv.mix_double(p);
  for (uint64_t s : r.per_video_switches) fnv.mix(s);
  return fnv.value();
}

Outputs outputs_of(const vod::MultiVideoResult& r) {
  return {r.requests, r.avg_streams, r.max_streams, result_checksum(r)};
}

double seconds_since(int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

// What the observer's report costs and contains, for one call.
struct ObsReport {
  double merge_s = 0.0;
  double export_s = 0.0;
  double bytes = 0.0;
  double trace_events = 0.0;
  double metric_series = 0.0;
  double qoe_groups = 0.0;
  bool ok = true;
};

double file_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0.0;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return static_cast<double>(size);
}

// Merges the observer's shards and writes every report a vodsim user asks
// for with --metrics-out/--trace-out/--qoe-out/--slo-out.
ObsReport write_report(const Options& opt, const vod::obs::EngineObserver& observer) {
  ObsReport r;
  const std::string base = opt.out_dir + "/" + opt.workload;
  const double t0 = thread_cpu_s();
  const vod::obs::MetricShard metrics = observer.merged_metrics();
  const std::unique_ptr<vod::obs::QoeShard> qoe = observer.merged_qoe();
  const double t1 = thread_cpu_s();
  const std::vector<const vod::obs::TraceBuffer*> buffers = observer.trace_buffers();
  r.ok = vod::obs::write_metrics_jsonl(base + ".metrics.jsonl", metrics) && r.ok;
  r.ok = vod::obs::write_chrome_trace(base + ".trace.json", buffers) && r.ok;
  r.ok = vod::obs::write_qoe_jsonl(base + ".qoe.jsonl", *qoe,
                                   observer.flight_recorders()) && r.ok;
  r.ok = vod::obs::write_slo_jsonl(base + ".slo.jsonl", *qoe) && r.ok;
  const double t2 = thread_cpu_s();
  r.merge_s = t1 - t0;
  r.export_s = t2 - t1;
  for (const char* ext : {".metrics.jsonl", ".trace.json", ".qoe.jsonl", ".slo.jsonl"}) {
    r.bytes += file_bytes(base + ext);
  }
  for (const vod::obs::TraceBuffer* b : buffers) {
    r.trace_events += static_cast<double>(b->emitted());
  }
  r.metric_series = static_cast<double>(metrics.counters().size() +
                                        metrics.gauges().size() +
                                        metrics.histograms().size());
  r.qoe_groups = static_cast<double>(qoe->groups().size());
  return r;
}

// One timed engine call; `observer` may be null. cpu_s is the calling
// thread's CPU time — the call's whole cost at num_threads == 1, where the
// engine runs every shard inline — and wall_s its wall time.
struct Call {
  double cpu_s = 0.0;
  double wall_s = 0.0;
  vod::MultiVideoResult result;
};

Call timed_call(vod::MultiVideoConfig config, vod::obs::EngineObserver* observer) {
  config.observer = observer;
  Call call;
  const int64_t t0 = now_ns();
  const double c0 = thread_cpu_s();
  call.result = vod::run_multi_video_simulation(config);
  call.cpu_s = thread_cpu_s() - c0;
  call.wall_s = seconds_since(t0);
  return call;
}

// Median CPU (or wall) seconds of `calls` unobserved engine calls.
double median_cpu_s(const vod::MultiVideoConfig& config, int calls) {
  std::vector<double> s;
  for (int i = 0; i < calls; ++i) s.push_back(timed_call(config, nullptr).cpu_s);
  return median(s);
}

double median_wall_s(const vod::MultiVideoConfig& config, int calls) {
  std::vector<double> s;
  for (int i = 0; i < calls; ++i) s.push_back(timed_call(config, nullptr).wall_s);
  return median(s);
}

vod::MultiVideoConfig horizon_zero(vod::MultiVideoConfig config) {
  config.warmup_hours = 0.0;
  config.measured_hours = 0.0;
  return config;
}

vod::MultiVideoConfig rate_zero(vod::MultiVideoConfig config) {
  config.total_requests_per_hour = 0.0;
  config.diurnal_peak_requests_per_hour = 0.0;
  return config;
}

// Checks the engine's own bookkeeping on one result.
bool requests_add_up(const vod::MultiVideoResult& r) {
  uint64_t sum = 0;
  for (uint64_t q : r.per_video_requests) sum += q;
  return sum == r.requests;
}

// --- the traced replay -----------------------------------------------------

struct ReplayNames {
  Tracer::NameId video;      // one video's whole replay
  Tracer::NameId construct;  // DhbScheduler / AdaptiveVideo constructor
  Tracer::NameId draw;       // ArrivalProcess::next()
  Tracer::NameId advance;    // advance on a non-empty schedule
  Tracer::NameId admit;      // admission of a non-empty slot batch
  Tracer::NameId quiet;      // AdaptiveVideo::on_slot_arrivals(0)
};

struct ReplayTotals {
  uint64_t candidates = 0;  // thinning proposals (non-homogeneous only)
  uint64_t draws = 0;       // next() calls, each returning one arrival
  bool matches = true;      // per-video requests and averages reproduced
};

// Replays ranks [0, videos) of the catalog exactly as the engine's shard
// kernel runs them, through the per-video public API. `tracer` may be null
// (the untraced twin that prices the tracing overhead).
ReplayTotals replay(const vod::MultiVideoConfig& config, int videos,
                    const vod::MultiVideoResult& expected, Tracer* tracer,
                    const ReplayNames& n) {
  const double d = config.slot_duration_s;
  const uint64_t warmup =
      static_cast<uint64_t>(std::ceil(config.warmup_hours * 3600.0 / d));
  const uint64_t total =
      warmup + static_cast<uint64_t>(std::ceil(config.measured_hours * 3600.0 / d));
  const vod::ZipfDistribution zipf(config.catalog_size, config.zipf_exponent);
  const double rate_per_s = vod::per_hour(config.total_requests_per_hour);
  const bool adaptive = config.policy == vod::VideoPolicy::kAdaptive;
  const bool diurnal = config.diurnal_peak_requests_per_hour > 0.0;
  std::optional<vod::NpbMapping> mapping;
  if (adaptive) {
    mapping = vod::NpbMapping::build(
        vod::NpbMapping::streams_for(config.num_segments), config.num_segments);
  }
  const vod::Rng base(config.seed);
  ReplayTotals totals;
  uint64_t candidates = 0;

  for (int v = 0; v < videos; ++v) {
    Span video_span(tracer, n.video);
    std::optional<vod::DhbScheduler> scheduler;
    std::optional<vod::AdaptiveVideo> video;
    {
      Span s(tracer, n.construct);
      if (adaptive) {
        vod::AdaptiveVideoConfig acfg = config.adaptive;
        acfg.num_segments = config.num_segments;
        acfg.fast_admission = config.fast_admission;
        acfg.video_id = static_cast<uint32_t>(v);
        video.emplace(acfg, &*mapping);
      } else {
        vod::DhbConfig dhb;
        dhb.num_segments = config.num_segments;
        dhb.use_placement_index = config.fast_admission;
        dhb.coalesce_same_slot = config.fast_admission;
        scheduler.emplace(dhb);
      }
    }
    const double p = zipf.probability(v);
    std::unique_ptr<vod::ArrivalProcess> arrivals;
    if (diurnal) {
      const double peak_h = config.diurnal_peak_requests_per_hour * p;
      auto curve = vod::daily_demand_curve(rate_per_s * p * 3600.0, peak_h);
      arrivals = std::make_unique<vod::NonHomogeneousPoissonProcess>(
          [curve, &candidates](double t) {
            ++candidates;
            return curve(t);
          },
          vod::per_hour(peak_h), base.fork(static_cast<uint64_t>(v) + 1));
    } else {
      arrivals = std::make_unique<vod::PoissonProcess>(
          rate_per_s * p, base.fork(static_cast<uint64_t>(v) + 1));
    }
    double next = 0.0;
    {
      Span s(tracer, n.draw);
      next = arrivals->next();
    }
    ++totals.draws;
    double stream_sum = 0.0;
    uint64_t requests = 0;
    for (uint64_t step = 1; step <= total; ++step) {
      int streams = 0;
      if (video) {
        Span s(tracer, n.advance);
        streams = video->advance_slot();
      } else if (scheduler->schedule().total_scheduled() > 0) {
        Span s(tracer, n.advance);
        streams = static_cast<int>(scheduler->advance_slot_view().size());
      }
      if (step > warmup) stream_sum += streams;
      const double slot_end = static_cast<double>(step) * d;
      uint64_t batch = 0;
      while (next < slot_end) {
        ++batch;
        Span s(tracer, n.draw);
        next = arrivals->next();
      }
      totals.draws += batch;
      if (video) {
        Span s(tracer, batch > 0 ? n.admit : n.quiet);
        video->on_slot_arrivals(batch);
      } else if (batch > 0) {
        Span s(tracer, n.admit);
        scheduler->on_request_batch_discard(batch);
      }
      if (step > warmup) requests += batch;
    }
    const size_t idx = static_cast<size_t>(v);
    const double avg = stream_sum / static_cast<double>(total - warmup);
    if (requests != expected.per_video_requests[idx] ||
        avg != expected.per_video_avg[idx]) {
      totals.matches = false;
    }
  }
  totals.candidates = candidates;
  return totals;
}

// --- running a workload ----------------------------------------------------

void run_engine(const Options& opt, const EngineSpec& spec, Report* report) {
  const vod::MultiVideoConfig& config = spec.config;
  std::unique_ptr<vod::obs::EngineObserver> observer;
  auto fresh_observer = [&]() -> vod::obs::EngineObserver* {
    if (!spec.observed) return nullptr;
    observer.reset();  // never two observers alive at once
    observer = std::make_unique<vod::obs::EngineObserver>();
    return observer.get();
  };

  // Set-up: horizon-0 calls (catalog, schedulers, arrival processes, the
  // observer; no slots), kSetupPerCall of them before every timed call so
  // they sample the same stretch of the run. One more, first, warms the
  // allocator and is not counted. Tearing down the previous observer (after
  // a timed call, a full run's worth of shards) is not set-up, so it
  // happens before the clock starts.
  std::vector<double> setup;
  auto time_setup = [&](int calls_to_time) {
    for (int i = 0; i < calls_to_time; ++i) {
      observer.reset();
      const double c0 = thread_cpu_s();
      vod::obs::EngineObserver* obs = fresh_observer();
      timed_call(horizon_zero(config), obs);
      setup.push_back(thread_cpu_s() - c0);
    }
  };
  time_setup(1);
  setup.clear();

  // Timed calls until the budget is spent (at least three). Only the
  // first result is kept whole (the replay checks against it); keeping
  // every one would make peak RSS depend on how many calls fit.
  struct Timed {
    double cpu_s = 0.0;
    Outputs outputs;
  };
  std::vector<Timed> calls;
  std::optional<vod::MultiVideoResult> first_result;
  std::vector<ObsReport> reports;
  const int64_t start = now_ns();
  const size_t min_calls = opt.trace ? 2 : 3;
  while (calls.size() < min_calls || seconds_since(start) < opt.seconds) {
    time_setup(kSetupPerCall);
    vod::obs::EngineObserver* obs = fresh_observer();
    Call call = timed_call(config, obs);
    if (obs != nullptr) reports.push_back(write_report(opt, *obs));
    calls.push_back({call.cpu_s, outputs_of(call.result)});
    report->attempted += call.result.requests;
    if (!requests_add_up(call.result)) ++report->failed;
    if (!first_result) first_result = std::move(call.result);
    if (opt.trace && calls.size() >= min_calls) break;
  }

  // Correctness: every call repeats the first; the engine's own totals add
  // up; a 2-thread call is bit-identical to the 1-thread ones; the report
  // was written.
  const Outputs first = calls.front().outputs;
  for (const Timed& c : calls) {
    report->check(c.outputs == first,
                  "a repeated engine call produced different outputs");
  }
  for (const ObsReport& r : reports) report->check(r.ok, "observer report not written");
  const double peak_rss = peak_rss_mb();  // before the 2-thread check call
  vod::MultiVideoConfig two_threads = config;
  two_threads.num_threads = 2;
  report->check(outputs_of(timed_call(two_threads, nullptr).result) == first,
                "2-thread engine result differs from the 1-thread one");
  check_pinned(opt, first, report);

  if (!opt.trace) {
    std::vector<double> rate;
    for (const Timed& c : calls) {
      rate.push_back(static_cast<double>(c.outputs.requests) / c.cpu_s);
    }
    std::fprintf(stderr, "perfbench: %zu calls, req/s quartiles %.1f %.1f\n",
                 rate.size(), quartiles(rate).q1, quartiles(rate).q3);
    report->set("setup_s", median(setup));
    report->set("requests_per_s", median(rate));
    report->set("peak_rss_mb", peak_rss);
    report->set("avg_streams", first.avg_streams);
    report->set("max_streams", first.max_streams);
    return;
  }

  // --- traced run: differential calls, all unobserved and timed by CPU
  // at 1 thread, except the thread-scaling pair, which needs wall time.
  const double V = static_cast<double>(config.catalog_size);
  const double T = static_cast<double>(
      static_cast<uint64_t>(std::ceil(config.warmup_hours * 3600.0 / config.slot_duration_s)) +
      static_cast<uint64_t>(std::ceil(config.measured_hours * 3600.0 / config.slot_duration_s)));
  const double speedup = median_wall_s(config, 3) / median_wall_s(two_threads, 3);
  const double t1 = median_cpu_s(config, 3);
  const double t0 = median_cpu_s(horizon_zero(config), 7);
  const double idle_full = median_cpu_s(rate_zero(config), 3);
  const double idle_zero = median_cpu_s(horizon_zero(rate_zero(config)), 7);
  const double idle_ns = std::max(0.0, idle_full - idle_zero) * 1e9 / (V * T);

  // Catalog-wide work counts from one observed call.
  vod::obs::EngineObserver counting;
  timed_call(config, &counting);
  const vod::obs::MetricShard m = counting.merged_metrics();
  const vod::obs::HistogramMetric* batches_h = m.find_histogram("engine_batch_requests");
  const double batches = batches_h != nullptr ? static_cast<double>(batches_h->count()) : 0.0;
  const double arrivals = batches_h != nullptr ? batches_h->sum() : 0.0;
  const double idle_slots = static_cast<double>(m.counter_value("engine_idle_slots_total"));
  const double requests = static_cast<double>(m.counter_value("dhb_requests_total"));

  // The replay, traced and untraced, interleaved (alternating which side
  // runs first); every pass must reproduce the engine's per-video figures.
  Tracer tracer(kStoredSpans);
  ReplayNames n;
  n.video = tracer.define("engine.video");
  n.construct = tracer.define("core.construct");
  n.draw = tracer.define("sim.arrival");
  n.advance = tracer.define("schedule.advance");
  n.admit = tracer.define("core.admit", true);
  n.quiet = tracer.define("adaptive.quiet_slot");
  const int videos = std::min(spec.replay_videos, config.catalog_size);
  const vod::MultiVideoResult& expected = *first_result;
  std::vector<double> tracing;
  ReplayTotals totals;
  double traced_cpu = 0.0;
  double traced_wall = 0.0;
  for (int pair = 0; pair < 3; ++pair) {
    double side_s[2] = {0.0, 0.0};  // [untraced, traced] CPU seconds
    for (int k = 0; k < 2; ++k) {
      const int traced = (k + pair) % 2;
      const int64_t w0 = now_ns();
      const double c0 = thread_cpu_s();
      const ReplayTotals r =
          replay(config, videos, expected, traced ? &tracer : nullptr, n);
      side_s[traced] = thread_cpu_s() - c0;
      if (traced) {
        traced_cpu += side_s[1];
        traced_wall += seconds_since(w0);
      }
      report->check(r.matches, "replay does not reproduce the engine's videos");
      totals = r;
    }
    tracing.push_back(side_s[1] / side_s[0] - 1.0);
  }
  // Spans are wall-clock (a CPU-clock read costs a system call); scaling by
  // the traced passes' CPU/wall ratio takes the hypervisor's steal out.
  const double steal_free = traced_wall > 0.0 ? traced_cpu / traced_wall : 1.0;
  auto net = [&](Tracer::NameId id) { return tracer.net_mean_ns(id) * steal_free; };

  // Layer cost model of the 1-thread call: catalog count x replay mean.
  const bool adaptive = config.policy == vod::VideoPolicy::kAdaptive;
  const double advances = V * T - idle_slots;
  const double quiet = adaptive ? V * T - batches : 0.0;
  const double modeled_ns = t0 * 1e9 + idle_slots * idle_ns +
                            advances * net(n.advance) + batches * net(n.admit) +
                            quiet * net(n.quiet) + arrivals * net(n.draw);
  const double unaccounted = 1.0 - modeled_ns * 1e-9 / t1;

  const double coalesced = static_cast<double>(m.counter_value("dhb_coalesced_requests_total"));
  const double work = static_cast<double>(m.counter_value("dhb_work_units_total"));
  const double fresh = static_cast<double>(m.counter_value("dhb_new_instances_total"));
  const double shared = static_cast<double>(m.counter_value("dhb_shared_instances_total"));
  report->set("sim.arrival_draws", arrivals);
  report->set("sim.arrival_ns", tracer.mean_ns(n.draw));
  report->set("sim.thinning_accept_ratio",
              totals.candidates == 0 ? 1.0
                                     : static_cast<double>(totals.draws) /
                                           static_cast<double>(totals.candidates));
  report->set("core.admit_calls", batches);
  report->set("core.admit_ns", tracer.mean_ns(n.admit));
  report->set("core.admit_p99_ns", require_percentile(tracer.stats(n.admit).durations_ns,
                                                      0.99, "admit p99"));
  report->set("core.coalesced_fraction", requests > 0 ? coalesced / requests : 0.0);
  report->set("core.work_units_per_request", requests > 0 ? work / requests : 0.0);
  report->set("core.new_instances_per_request", requests > 0 ? fresh / requests : 0.0);
  report->set("core.shared_fraction", fresh + shared > 0 ? shared / (fresh + shared) : 0.0);
  report->set("core.scheduler_setup_ns", tracer.mean_ns(n.construct));
  report->set("schedule.advance_ns", tracer.mean_ns(n.advance));
  report->set("schedule.busy_video_slots", advances);
  report->set("schedule.idle_video_slots", idle_slots);
  report->set("schedule.idle_ns_per_video_slot", idle_ns);
  report->set("engine.video_setup_ns", t0 * 1e9 / V);
  report->set("engine.thread_speedup", speedup);
  report->set("engine.unaccounted_fraction", unaccounted);
  report->set("bench.unaccounted_fraction", unaccounted);
  report->set("bench.tracing_overhead_fraction", median(tracing));
  report->set("bench.spans_recorded", static_cast<double>(tracer.recorded()));
  report->set("bench.span_cost_ns", tracer.span_cost_ns());
  report->set("adaptive.switches",
              static_cast<double>(m.counter_value("adaptive_switches_total")));
  report->set("adaptive.mode_slots_reactive",
              static_cast<double>(m.counter_value("adaptive_slots_mode_reactive_total")));
  report->set("adaptive.mode_slots_dhb",
              static_cast<double>(m.counter_value("adaptive_slots_mode_dhb_total")));
  report->set("adaptive.mode_slots_static",
              static_cast<double>(m.counter_value("adaptive_slots_mode_static_total")));
  report->set("adaptive.migration_overlap_slots",
              static_cast<double>(m.counter_value("adaptive_migration_overlap_slots_total")));
  const std::string spans = opt.out_dir + "/" + opt.workload + ".spans.tsv";
  report->check(tracer.write_tsv(spans), "cannot write " + spans);
  if (!spec.observed) return;

  // The obs layer: report contents and costs, the observer's resident
  // memory, and its overhead from paired, interleaved calls with and
  // without it (order alternating). A negative median is unresolved, never
  // a gain.
  std::vector<double> merge_ns;
  std::vector<double> export_ns;
  std::vector<double> report_s;
  for (const ObsReport& r : reports) {
    merge_ns.push_back(r.merge_s * 1e9);
    export_ns.push_back(r.export_s * 1e9);
    report_s.push_back(r.merge_s + r.export_s);
  }
  std::vector<double> obs_overhead;
  double rss_mb = 0.0;
  for (int pair = 0; pair < 5; ++pair) {
    double side_s[2] = {0.0, 0.0};  // [without, with]
    for (int k = 0; k < 2; ++k) {
      const int with = (k + pair) % 2;
      if (with) {
        const double before = current_rss_mb();
        vod::obs::EngineObserver paired;
        side_s[1] = timed_call(config, &paired).cpu_s;
        if (pair == 0) rss_mb = current_rss_mb() - before;
      } else {
        side_s[0] = timed_call(config, nullptr).cpu_s;
      }
    }
    obs_overhead.push_back(side_s[1] / side_s[0] - 1.0);
  }
  const Quartiles q = quartiles(obs_overhead);
  const ObsReport& r = reports.front();
  report->set("obs.trace_events", r.trace_events);
  report->set("obs.metric_series", r.metric_series);
  report->set("obs.qoe_groups", r.qoe_groups);
  report->set("obs.merge_ns", median(merge_ns));
  report->set("obs.export_ns", median(export_ns));
  report->set("obs.export_bytes", r.bytes);
  report->set("obs.rss_mb", rss_mb);
  report->set("obs.report_s", median(report_s));
  report->set("obs.overhead_fraction", std::max(0.0, median(obs_overhead)));
  report->set("obs.overhead_spread", q.q3 - q.q1);
  report->set("obs.overhead_resolved", q.q1 > 0.0 ? 1.0 : 0.0);
}

}  // namespace

void run_cold_tail_catalog(const Options& opt, Report* report) {
  run_engine(opt, cold_tail_spec(opt.seed), report);
}

void run_diurnal_observed(const Options& opt, Report* report) {
  run_engine(opt, diurnal_spec(opt.seed), report);
}

}  // namespace perfbench
