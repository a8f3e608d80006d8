// The two driven workloads: the benchmark owns the slot loop and calls the
// library once per slot, so each slot can be timed on its own.
//
//   hot_admission — one long video (n = 200, so n * window clears the
//     placement-index cutover) with a few Poisson arrivals per slot, every
//     arrival admitted with DhbScheduler::on_request() because a live
//     server must hand each client its plan.
//   vcr_sessions — a VodServer for the paper's n = 99 video (below the
//     cutover: the naive scan) whose clients start, pause, resume mid-video
//     and stop on a script drawn from the seed.
//
// Both are closed loops over simulated time: slot k+1 starts when slot k is
// served. The inputs — per-slot arrival counts, the VCR script — are drawn
// once per run from the seed, outside any timed region; every unit of the
// run replays the same inputs from a fresh server, so each unit is the same
// fixed amount of simulated work and its outputs must repeat exactly.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/dhb.h"
#include "harness.h"
#include "schedule/client_plan.h"
#include "server/vod_server.h"
#include "sim/arrival_process.h"
#include "sim/random.h"
#include "summary.h"
#include "tracer.h"

namespace perfbench {
namespace {

constexpr double kSlotSeconds = 72.7;  // the paper's two-hour/99-segment slot
constexpr size_t kStoredSpans = size_t{1} << 20;
// Set-ups per unit: the server is built and warmed up this many times and
// the last one serves the timed slots, so setup_s is a median of many.
constexpr int kSetupRepeats = 9;

// Per-slot arrival counts of a Poisson stream of `per_slot` arrivals per
// slot on substream `stream` of the seed, for slots 1..slots. Draws are
// spanned as the sim layer when traced.
std::vector<uint32_t> draw_arrivals(uint64_t seed, uint64_t stream,
                                    double per_slot, uint64_t slots,
                                    Tracer* tracer, Tracer::NameId draw) {
  vod::PoissonProcess arrivals(per_slot / kSlotSeconds,
                               vod::Rng(seed).fork(stream));
  std::vector<uint32_t> counts(slots, 0);
  double next = 0.0;
  {
    Span s(tracer, draw);
    next = arrivals.next();
  }
  for (uint64_t step = 1; step <= slots; ++step) {
    const double slot_end = static_cast<double>(step) * kSlotSeconds;
    while (next < slot_end) {
      ++counts[step - 1];
      Span s(tracer, draw);
      next = arrivals.next();
    }
  }
  return counts;
}

// One unit's measurements. Host time is thread CPU time (tracer.h);
// per-slot wall times are only taken in the traced run, whose untraced
// units give the slot percentiles and price the tracing overhead.
struct Unit {
  std::vector<double> setup_s;  // construction + warm-up, kSetupRepeats times
  double cpu_s = 0.0;    // the timed slots, checksum folds included
  double timed_s = 0.0;  // traced run: sum of the timed slots' wall times
  std::vector<double> slot_us;
  uint64_t admissions = 0;  // in the timed region
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t busy_slots = 0;
  uint64_t idle_slots = 0;
  Outputs outputs;
};

void fold_streams(const std::vector<int>& streams, Fnv* fnv, Outputs* out) {
  double sum = 0.0;
  int peak = 0;
  for (int s : streams) {
    fnv->mix(static_cast<uint64_t>(s));
    sum += s;
    peak = std::max(peak, s);
  }
  out->avg_streams = streams.empty() ? 0.0 : sum / static_cast<double>(streams.size());
  out->max_streams = peak;
}

// Order-sensitive digest of a plan's reception slots; a vectorizable sum,
// so folding every plan into the checksum stays cheap.
uint64_t plan_digest(const vod::ClientPlan& plan) {
  uint64_t h = 0;
  const size_t n = plan.reception_slot.size();
  for (size_t j = 0; j < n; ++j) {
    h += static_cast<uint64_t>(plan.reception_slot[j]) * (2 * j + 1);
  }
  return h ^ (static_cast<uint64_t>(n) << 56);
}

// Per-slot wall clock of the traced run; inert (no clock reads) otherwise.
class SlotTimer {
 public:
  explicit SlotTimer(bool on) : on_(on) {}
  void start() {
    if (on_) t0_ = now_ns();
  }
  void stop(Unit* u) {
    if (!on_) return;
    const int64_t t = now_ns() - t0_;
    u->slot_us.push_back(static_cast<double>(t) * 1e-3);
    u->timed_s += static_cast<double>(t) * 1e-9;
  }

 private:
  bool on_;
  int64_t t0_ = 0;
};

// Runs the reference unit, then timed units until `seconds` have passed
// (at least `min_units`). The reference unit verifies every output (later
// units must reproduce its checksum, so they need not) and is not timed:
// the allocator and caches start cold. In trace mode the timed units
// alternate untraced/traced, starting untraced. run_unit(traced, verify).
template <typename RunUnit>
Unit repeat_units(const Options& opt, size_t min_units, RunUnit run_unit,
                  std::vector<Unit>* untraced, std::vector<Unit>* traced) {
  Unit reference = run_unit(false, true);
  const int64_t start = now_ns();
  for (size_t i = 0;; ++i) {
    const bool trace_this = opt.trace && i % 2 == 1;
    (trace_this ? traced : untraced)->push_back(run_unit(trace_this, false));
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    const size_t done = untraced->size() + traced->size();
    if (done >= min_units && elapsed >= opt.seconds && (!opt.trace || i % 2 == 1)) {
      break;
    }
  }
  return reference;
}

// Shared end-to-end / cross-unit reporting of a driven workload.
void report_units(const Options& opt, const Unit& reference,
                  const std::vector<Unit>& untraced,
                  const std::vector<Unit>& traced, Report* report) {
  const Outputs& first = reference.outputs;
  report->attempted += reference.attempted;
  report->failed += reference.failed;
  for (const std::vector<Unit>* units : {&untraced, &traced}) {
    for (const Unit& u : *units) {
      report->attempted += u.attempted;
      report->failed += u.failed;
      report->check(u.outputs == first,
                    "a repeated unit produced different outputs");
    }
  }
  check_pinned(opt, first, report);
  if (opt.trace) return;
  std::vector<double> setup;
  std::vector<double> rate;
  for (const Unit& u : untraced) {
    setup.insert(setup.end(), u.setup_s.begin(), u.setup_s.end());
    rate.push_back(static_cast<double>(u.admissions) / u.cpu_s);
  }
  std::fprintf(stderr, "perfbench: %zu units, req/s quartiles %.1f %.1f\n",
               rate.size(), quartiles(rate).q1, quartiles(rate).q3);
  report->set("setup_s", median(setup));
  report->set("requests_per_s", median(rate));
  report->set("peak_rss_mb", peak_rss_mb());
  report->set("avg_streams", first.avg_streams);
  report->set("max_streams", first.max_streams);
}

// Traced-run metrics every driven workload shares: slot percentiles from
// the untraced units, tracing overhead from the interleaved pairs, and the
// share of untraced slot time the layer spans do not cover.
void report_trace_common(const std::vector<Unit>& untraced,
                         const std::vector<Unit>& traced, const Tracer& tracer,
                         const std::vector<Tracer::NameId>& layers,
                         Report* report) {
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> untraced_s;
  for (const Unit& u : untraced) {
    p50.push_back(require_percentile(u.slot_us, 0.50, "slot p50"));
    p99.push_back(require_percentile(u.slot_us, 0.99, "slot p99"));
    untraced_s.push_back(u.timed_s);
  }
  std::vector<double> overhead;
  for (size_t i = 0; i < traced.size() && i < untraced.size(); ++i) {
    overhead.push_back(traced[i].timed_s / untraced[i].timed_s - 1.0);
  }
  report->set("server.slot_p50_us", median(p50));
  report->set("server.slot_p99_us", median(p99));
  report->set("bench.tracing_overhead_fraction", median(overhead));

  // Layer self time per traced unit, over the timed slots only (warm-up
  // slots run unspanned). The slot span's own self time — the loop between
  // the library calls — is what stays unaccounted.
  double layer_ns = 0.0;
  for (Tracer::NameId id : layers) layer_ns += tracer.net_self_ns(id);
  layer_ns /= static_cast<double>(traced.size());
  report->set("bench.unaccounted_fraction",
              1.0 - layer_ns * 1e-9 / median(untraced_s));
  report->set("bench.spans_recorded", static_cast<double>(tracer.recorded()));
  report->set("bench.span_cost_ns", tracer.span_cost_ns());
}

void write_spans(const Options& opt, const Tracer& tracer, Report* report) {
  const std::string path = opt.out_dir + "/" + opt.workload + ".spans.tsv";
  report->check(tracer.write_tsv(path), "cannot write " + path);
}

}  // namespace

// --- hot_admission ---------------------------------------------------------

void run_hot_admission(const Options& opt, Report* report) {
  constexpr int kSegments = 200;
  constexpr double kArrivalsPerSlot = 4.0;
  constexpr uint64_t kWarmupSlots = 2 * kSegments;
  constexpr uint64_t kTimedSlots = 30000;

  Tracer tracer(opt.trace ? kStoredSpans : 0);
  Tracer* const t = opt.trace ? &tracer : nullptr;
  const Tracer::NameId n_draw = tracer.define("sim.arrival");
  const Tracer::NameId n_construct = tracer.define("core.construct");
  const Tracer::NameId n_slot = tracer.define("slot");
  const Tracer::NameId n_advance = tracer.define("schedule.advance");
  const Tracer::NameId n_admit = tracer.define("core.admit", true);

  const std::vector<uint32_t> arrivals = draw_arrivals(
      opt.seed, 1, kArrivalsPerSlot, kWarmupSlots + kTimedSlots, t, n_draw);

  vod::DhbConfig config;
  config.num_segments = kSegments;
  uint64_t coalesced = 0, requests = 0, work = 0, fresh = 0, shared = 0;
  // T[j], for verify_plan.
  const std::vector<int> periods = vod::DhbScheduler(config).periods();

  auto run_unit = [&](bool traced, bool verify) {
    Tracer* const tr = traced ? t : nullptr;
    Unit u;
    Fnv fnv;
    SlotTimer clock(opt.trace);
    std::vector<int> streams;
    streams.reserve(kTimedSlots);
    std::vector<vod::DhbRequestResult> results;
    auto check_plans = [&] {
      for (const vod::DhbRequestResult& r : results) {
        if (!vod::verify_plan(r.plan, periods).deadlines_met) {
          ++u.failed;
        }
      }
    };
    // Plans are handed out and dropped slot by slot, as a server would; the
    // reference unit verifies the last set-up's plans.
    std::optional<vod::DhbScheduler> sched;
    for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
      const bool check = verify && repeat + 1 == kSetupRepeats;
      sched.reset();
      const double cpu0 = thread_cpu_s();
      {
        Span s(tr, n_construct);
        sched.emplace(config);
      }
      for (uint64_t step = 1; step <= kWarmupSlots; ++step) {
        sched->advance_slot_view();
        for (uint32_t k = 0; k < arrivals[step - 1]; ++k) {
          results.push_back(sched->on_request());
        }
        if (check) check_plans();
        results.clear();
      }
      u.setup_s.push_back(thread_cpu_s() - cpu0);
    }
    for (uint64_t step = 1; step <= kWarmupSlots; ++step) u.attempted += arrivals[step - 1];
    report->check(sched->placement_index_active(),
                  "hot_admission must run above the index cutover");

    const double cpu1 = thread_cpu_s();
    for (uint64_t step = kWarmupSlots + 1; step <= kWarmupSlots + kTimedSlots; ++step) {
      const uint32_t count = arrivals[step - 1];
      (sched->schedule().total_scheduled() > 0 ? u.busy_slots : u.idle_slots) += 1;
      clock.start();
      {
        Span slot(tr, n_slot);
        {
          Span s(tr, n_advance);
          streams.push_back(static_cast<int>(sched->advance_slot_view().size()));
        }
        for (uint32_t k = 0; k < count; ++k) {
          Span s(tr, n_admit);
          results.push_back(sched->on_request());
        }
      }
      clock.stop(&u);
      u.attempted += count;
      u.admissions += count;
      // Every returned plan goes into the checksum: a cheap per-plan digest
      // inside the CPU-timed region (~1% of it), full verification only in
      // the reference unit.
      for (const vod::DhbRequestResult& r : results) {
        fnv.mix(static_cast<uint64_t>(r.plan.arrival_slot));
        fnv.mix(plan_digest(r.plan));
      }
      if (verify) check_plans();
      results.clear();
    }
    u.cpu_s = thread_cpu_s() - cpu1;
    fold_streams(streams, &fnv, &u.outputs);
    u.outputs.requests = u.admissions;
    u.outputs.checksum = fnv.value();
    coalesced = sched->total_coalesced_requests();
    requests = sched->total_requests();
    work = sched->total_work_units();
    fresh = sched->total_new_instances();
    shared = sched->total_shared();
    return u;
  };

  std::vector<Unit> untraced;
  std::vector<Unit> traced;
  const Unit reference = repeat_units(opt, 3, run_unit, &untraced, &traced);
  report_units(opt, reference, untraced, traced, report);
  if (!opt.trace) return;

  const Unit& u = untraced.front();
  const Tracer::Stats& draw = tracer.stats(n_draw);
  const Tracer::Stats& admit = tracer.stats(n_admit);
  report->set("sim.arrival_draws", static_cast<double>(draw.calls));
  report->set("sim.arrival_ns", tracer.mean_ns(n_draw));
  report->set("sim.thinning_accept_ratio", 1.0);
  report->set("core.admit_calls", static_cast<double>(u.admissions));
  report->set("core.admit_ns", tracer.mean_ns(n_admit));
  report->set("core.admit_p99_ns",
              require_percentile(admit.durations_ns, 0.99, "admit p99"));
  const double req = static_cast<double>(requests);
  report->set("core.coalesced_fraction", static_cast<double>(coalesced) / req);
  report->set("core.work_units_per_request", static_cast<double>(work) / req);
  report->set("core.new_instances_per_request", static_cast<double>(fresh) / req);
  report->set("core.shared_fraction",
              static_cast<double>(shared) / static_cast<double>(fresh + shared));
  report->set("core.scheduler_setup_ns", tracer.mean_ns(n_construct));
  report->set("schedule.advance_ns", tracer.mean_ns(n_advance));
  report->set("schedule.busy_video_slots", static_cast<double>(u.busy_slots));
  report->set("schedule.idle_video_slots", static_cast<double>(u.idle_slots));
  report_trace_common(untraced, traced, tracer, {n_advance, n_admit}, report);
  write_spans(opt, tracer, report);
}

// --- vcr_sessions ----------------------------------------------------------

namespace {

enum class OpKind : uint8_t { kStart, kPause, kResume, kStop };

struct Op {
  uint64_t step = 0;
  uint32_t viewer = 0;
  OpKind kind = OpKind::kStart;
};

// The VCR script: per step, the operations to apply after the slot
// advance, starts first, then pauses/resumes/stops, each in viewer order.
struct Script {
  std::vector<Op> ops;            // sorted by step
  std::vector<size_t> first_op;   // per step 0..steps: index into ops
  uint32_t viewers = 0;
};

// Viewer behaviour, drawn per viewer from its own substream, combines the
// repository's two viewer models:
//   watch length (bench/abandonment.cc): L = min(1 + Geometric(2/n), n)
//       segments, mean about half the video; L < n stops after L segments,
//       L = n watches to the end;
//   one break (examples/vcr_session.cpp): 15% of viewers pause after
//       5 + U[0, 40) segments for a 10-minute break (kBreakSlots), then
//       resume mid-video; a viewer who leaves before that point never
//       pauses.
// Operations past the horizon are dropped. A session admitted at step a
// has watched k segments after the advance of step a+k (a break shifts the
// rest by its length), so every pause and stop lands on a watching session
// and every resume on a paused one.
constexpr double kBreakShare = 0.15;
constexpr uint64_t kBreakSlots = static_cast<uint64_t>(600.0 / kSlotSeconds) + 1;

Script make_script(uint64_t seed, int n, double per_slot, uint64_t steps,
                   Tracer* tracer, Tracer::NameId draw) {
  const std::vector<uint32_t> arrivals =
      draw_arrivals(seed, 1, per_slot, steps, tracer, draw);
  const vod::Rng behaviour = vod::Rng(seed).fork(2);
  const uint64_t segments = static_cast<uint64_t>(n);
  Script script;
  std::vector<Op> ops;
  auto push = [&](uint64_t step, uint32_t viewer, OpKind kind) {
    if (step <= steps) ops.push_back({step, viewer, kind});
  };
  for (uint64_t step = 1; step <= steps; ++step) {
    for (uint32_t k = 0; k < arrivals[step - 1]; ++k) {
      const uint32_t viewer = script.viewers++;
      ops.push_back({step, viewer, OpKind::kStart});
      vod::Rng rng = behaviour.fork(viewer);
      const bool takes_break = rng.uniform() < kBreakShare;
      const uint64_t break_at = 5 + rng.uniform_index(40);
      const uint64_t watched =
          std::min<uint64_t>(1 + rng.geometric(2.0 / static_cast<double>(n)), segments);
      uint64_t shift = 0;
      if (takes_break && break_at < watched) {
        push(step + break_at, viewer, OpKind::kPause);
        push(step + break_at + kBreakSlots, viewer, OpKind::kResume);
        shift = kBreakSlots;
      }
      if (watched < segments) push(step + watched + shift, viewer, OpKind::kStop);
    }
  }
  std::stable_sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
    if (a.step != b.step) return a.step < b.step;
    const bool a_start = a.kind == OpKind::kStart;
    const bool b_start = b.kind == OpKind::kStart;
    if (a_start != b_start) return a_start;
    return a.viewer < b.viewer;
  });
  script.first_op.assign(steps + 2, ops.size());
  for (size_t i = ops.size(); i-- > 0;) script.first_op[ops[i].step] = i;
  for (uint64_t s = steps; s-- > 0;) {
    script.first_op[s] = std::min(script.first_op[s], script.first_op[s + 1]);
  }
  script.ops = std::move(ops);
  return script;
}

}  // namespace

void run_vcr_sessions(const Options& opt, Report* report) {
  constexpr int kSegments = 99;
  // 200 req/h: a point of bench/abandonment.cc's rate sweep.
  constexpr double kArrivalsPerSlot = 200.0 / 3600.0 * kSlotSeconds;
  // A longer warm-up than hot_admission's: its ~1600 starts make set-up
  // time depend less on how many arrivals the seed puts into it.
  constexpr uint64_t kWarmupSlots = 4 * kSegments;
  constexpr uint64_t kTimedSlots = 4000;
  constexpr uint64_t kSteps = kWarmupSlots + kTimedSlots;

  Tracer tracer(opt.trace ? kStoredSpans : 0);
  Tracer* const t = opt.trace ? &tracer : nullptr;
  const Tracer::NameId n_draw = tracer.define("sim.arrival");
  const Tracer::NameId n_construct = tracer.define("server.construct");
  const Tracer::NameId n_slot = tracer.define("slot");
  const Tracer::NameId n_advance = tracer.define("server.advance");
  const Tracer::NameId n_start = tracer.define("server.start", true);
  const Tracer::NameId n_resume = tracer.define("server.resume", true);
  const Tracer::NameId n_vcr = tracer.define("server.vcr");

  const Script script =
      make_script(opt.seed, kSegments, kArrivalsPerSlot, kSteps, t, n_draw);

  vod::DhbConfig config;
  config.num_segments = kSegments;
  uint64_t coalesced = 0, requests = 0, work = 0, fresh = 0, shared = 0;
  double table_size = 0.0, live = 0.0;

  auto run_unit = [&](bool traced, bool /*verify*/) {
    Tracer* const tr = traced ? t : nullptr;
    Unit u;
    Fnv fnv;
    SlotTimer clock(opt.trace);
    std::vector<int> streams;
    streams.reserve(kTimedSlots);
    std::vector<vod::VodServer::ClientId> ids(script.viewers, 0);
    // Applies one step's script operations; returns the admissions.
    auto apply = [&](vod::VodServer& server, uint64_t step, Tracer* tr_ops) {
      uint64_t admitted = 0;
      for (size_t i = script.first_op[step]; i < script.first_op[step + 1]; ++i) {
        const Op& op = script.ops[i];
        switch (op.kind) {
          case OpKind::kStart: {
            Span s(tr_ops, n_start);
            ids[op.viewer] = server.start();
            ++admitted;
            break;
          }
          case OpKind::kResume: {
            Span s(tr_ops, n_resume);
            server.resume(ids[op.viewer]);
            ++admitted;
            break;
          }
          case OpKind::kPause: {
            Span s(tr_ops, n_vcr);
            server.pause(ids[op.viewer]);
            break;
          }
          case OpKind::kStop: {
            Span s(tr_ops, n_vcr);
            server.stop(ids[op.viewer]);
            break;
          }
        }
      }
      u.attempted += script.first_op[step + 1] - script.first_op[step];
      return admitted;
    };

    std::optional<vod::VodServer> server;
    for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
      server.reset();
      u.attempted = 0;
      const double cpu0 = thread_cpu_s();
      {
        Span s(tr, n_construct);
        server.emplace(config);
      }
      for (uint64_t step = 1; step <= kWarmupSlots; ++step) {
        server->advance_slot();
        apply(*server, step, nullptr);
      }
      u.setup_s.push_back(thread_cpu_s() - cpu0);
    }
    report->check(!server->scheduler().placement_index_active(),
                  "vcr_sessions must run below the index cutover");

    const double cpu1 = thread_cpu_s();
    for (uint64_t step = kWarmupSlots + 1; step <= kSteps; ++step) {
      (server->scheduler().schedule().total_scheduled() > 0 ? u.busy_slots
                                                            : u.idle_slots) += 1;
      clock.start();
      {
        Span slot(tr, n_slot);
        {
          Span s(tr, n_advance);
          streams.push_back(static_cast<int>(server->advance_slot().size()));
        }
        u.admissions += apply(*server, step, tr);
      }
      clock.stop(&u);
    }
    u.cpu_s = thread_cpu_s() - cpu1;
    // Every (re-)admission met its deadlines, and the session table matches
    // the script.
    const std::vector<vod::VodServer::ClientId> all = server->session_ids();
    report->check(all.size() == script.viewers,
                  "session table does not match the script");
    for (vod::VodServer::ClientId id : all) {
      const vod::VodServer::SessionInfo& info = server->session(id);
      if (!info.playout_ok) ++u.failed;
      fnv.mix(static_cast<uint64_t>(info.state));
      fnv.mix(static_cast<uint64_t>(info.next_segment));
      fnv.mix(static_cast<uint64_t>(info.admitted_slot));
      fnv.mix(static_cast<uint64_t>(info.resumes));
    }
    fold_streams(streams, &fnv, &u.outputs);
    u.outputs.requests = u.admissions;
    u.outputs.checksum = fnv.value();
    const vod::DhbScheduler& sched = server->scheduler();
    coalesced = sched.total_coalesced_requests();
    requests = sched.total_requests();
    work = sched.total_work_units();
    fresh = sched.total_new_instances();
    shared = sched.total_shared();
    table_size = static_cast<double>(all.size());
    live = static_cast<double>(server->active_sessions());
    return u;
  };

  std::vector<Unit> untraced;
  std::vector<Unit> traced;
  const Unit reference = repeat_units(opt, 3, run_unit, &untraced, &traced);
  report_units(opt, reference, untraced, traced, report);
  if (!opt.trace) return;

  const Unit& u = untraced.front();
  const Tracer::Stats& draw = tracer.stats(n_draw);
  const Tracer::Stats& start = tracer.stats(n_start);
  const Tracer::Stats& resume = tracer.stats(n_resume);
  std::vector<double> admit_ns = start.durations_ns;
  admit_ns.insert(admit_ns.end(), resume.durations_ns.begin(),
                  resume.durations_ns.end());
  report->set("sim.arrival_draws", static_cast<double>(draw.calls));
  report->set("sim.arrival_ns", tracer.mean_ns(n_draw));
  report->set("sim.thinning_accept_ratio", 1.0);
  report->set("core.admit_calls", static_cast<double>(u.admissions));
  report->set("core.admit_ns",
              (tracer.mean_ns(n_start) * static_cast<double>(start.calls) +
               tracer.mean_ns(n_resume) * static_cast<double>(resume.calls)) /
                  static_cast<double>(start.calls + resume.calls));
  report->set("core.admit_p99_ns",
              require_percentile(admit_ns, 0.99, "admit p99"));
  const double req = static_cast<double>(requests);
  report->set("core.coalesced_fraction", static_cast<double>(coalesced) / req);
  report->set("core.work_units_per_request", static_cast<double>(work) / req);
  report->set("core.new_instances_per_request", static_cast<double>(fresh) / req);
  report->set("core.shared_fraction",
              static_cast<double>(shared) / static_cast<double>(fresh + shared));
  report->set("core.resume_ns", tracer.mean_ns(n_resume));
  report->set("core.scheduler_setup_ns", tracer.mean_ns(n_construct));
  report->set("schedule.busy_video_slots", static_cast<double>(u.busy_slots));
  report->set("schedule.idle_video_slots", static_cast<double>(u.idle_slots));
  report->set("server.advance_ns", tracer.mean_ns(n_advance));
  report->set("server.start_ns", tracer.mean_ns(n_start));
  report->set("server.vcr_ns", tracer.mean_ns(n_vcr));
  report->set("server.session_table_size", table_size);
  report->set("server.live_session_ratio", live / table_size);
  report_trace_common(untraced, traced, tracer,
                      {n_advance, n_start, n_resume, n_vcr}, report);
  write_spans(opt, tracer, report);
}

}  // namespace perfbench
