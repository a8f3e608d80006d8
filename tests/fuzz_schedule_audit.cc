// Differential fuzz driver for the scheduling core.
//
// Replays randomized traces of mixed admissions (on_request, on_range for
// full requests, resumes and prefixes, on_request_bounded) and slot
// advances against DhbScheduler, across slot heuristics and period
// vectors, and after EVERY operation:
//   * deep-audits the scheduler with ScheduleAuditor (sharing, containment,
//     load/index consistency, clock, counter conservation, live plans);
//   * diffs the transmitted schedule — and each admitted client's
//     reception plan — against NaiveOracle (naive_oracle.h), a brute-force
//     re-derivation of the Figure 6 algorithm (generalized to ranges,
//     heuristics, client caps, and bounded admission) on naive data
//     structures.
//
// The acceptance bar (ISSUE 1): >= 10k audited steps, >= 3 heuristics,
// >= 2 period vectors, zero violations, zero divergences.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "analysis/schedule_auditor.h"
#include "analysis/transition_auditor.h"
#include "core/dhb.h"
#include "core/heuristics.h"
#include "naive_oracle.h"
#include "protocols/npb.h"
#include "server/adaptive_video.h"
#include "sim/random.h"

namespace vod {
namespace {

// Effective per-entry period vector an on_range(first, last) admission runs
// under; what ScheduleAuditor::track_plan needs.
std::vector<int> range_periods(const DhbScheduler& dhb, Segment first,
                               Segment last) {
  std::vector<int> out;
  for (Segment j = first; j <= last; ++j) {
    const int t = dhb.periods()[static_cast<size_t>(j - 1)];
    out.push_back(first == 1 ? t
                             : std::min(t, static_cast<int>(j - first + 1)));
  }
  return out;
}

struct FuzzConfig {
  std::vector<int> periods;  // empty = CBR T[j] = j
  SlotHeuristic heuristic = SlotHeuristic::kMinLoadLatest;
  int num_segments = 12;
  int slots = 500;
  double arrivals_per_slot = 0.8;
  uint64_t seed = 1;
  bool mixed_ops = false;     // resumes + ranges (clamped windows)
  int bounded_cap = 0;        // >0: use on_request_bounded for full requests
  int client_stream_cap = 0;  // >0: capped-client variant
  bool diff_oracle = true;    // false for kRandom
};

// Runs one fuzzed trace; adds every audited step to *audited and, when
// `empty_replays` is set, counts the full uncapped admissions that enter an
// empty schedule after the scheduler's first such one — the admissions
// DhbScheduler commits from its recorded empty-schedule plan.
void run_fuzz(const FuzzConfig& fc, uint64_t* audited,
              uint64_t* empty_replays = nullptr) {
  DhbConfig config;
  config.num_segments = fc.num_segments;
  config.periods = fc.periods;
  config.heuristic = fc.heuristic;
  config.client_stream_cap = fc.client_stream_cap;
  DhbScheduler dhb(config);
  NaiveOracle oracle(fc.num_segments, fc.periods, fc.heuristic);
  const bool duplicates_legal = fc.mixed_ops || fc.client_stream_cap > 0;
  ScheduleAuditor auditor(
      AuditOptions{.allow_multiple_instances = duplicates_legal});
  auditor.attach(dhb);
  Rng rng(fc.seed);
  bool seen_empty_full = false;

  const auto audit_now = [&]() {
    const AuditReport report = auditor.audit(dhb);
    ASSERT_TRUE(report.ok())
        << "heuristic=" << to_string(fc.heuristic) << " seed=" << fc.seed
        << " slot=" << dhb.current_slot() << ": " << report.to_string();
    ++*audited;
  };

  for (int slot = 0; slot < fc.slots && !testing::Test::HasFailure(); ++slot) {
    // Advance both sides and diff the transmitted schedule.
    const std::span<const Segment> sent = dhb.advance_slot_view();
    ASSERT_TRUE(auditor.on_advance(dhb, sent).ok());
    if (fc.diff_oracle) {
      std::vector<Segment> a(sent.begin(), sent.end());
      std::vector<Segment> b = oracle.advance();
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      ASSERT_EQ(a, b) << "transmission divergence at slot "
                      << dhb.current_slot() << " (heuristic "
                      << to_string(fc.heuristic) << ", seed " << fc.seed
                      << ")";
    }
    audit_now();

    for (uint64_t k = rng.poisson(fc.arrivals_per_slot); k > 0; --k) {
      Segment first = 1;
      Segment last = static_cast<Segment>(fc.num_segments);
      const double op = fc.mixed_ops ? rng.uniform() : 1.0;
      if (op < 0.25) {  // resume: watch first..n
        first = static_cast<Segment>(
            1 + rng.uniform_index(static_cast<uint64_t>(fc.num_segments)));
      } else if (op < 0.45) {  // range: watch first..last
        first = static_cast<Segment>(
            1 + rng.uniform_index(static_cast<uint64_t>(fc.num_segments)));
        last = static_cast<Segment>(
            first + static_cast<Segment>(rng.uniform_index(
                        static_cast<uint64_t>(fc.num_segments - first + 1))));
      }

      if (fc.bounded_cap > 0) {
        const std::optional<DhbRequestResult> got =
            dhb.on_request_bounded(fc.bounded_cap);
        const std::optional<std::vector<Slot>> want =
            oracle.admit_bounded(fc.bounded_cap);
        ASSERT_EQ(got.has_value(), want.has_value())
            << "bounded admission verdict divergence at slot "
            << dhb.current_slot();
        if (got) {
          ASSERT_EQ(got->plan.reception_slot, *want)
              << "bounded plan divergence at slot " << dhb.current_slot();
          ASSERT_EQ(got->cap_violations, 0);
          auditor.track_plan(got->plan, 1, range_periods(dhb, 1, last));
        }
      } else {
        if (empty_replays != nullptr && fc.client_stream_cap == 0 &&
            first == 1 && last == fc.num_segments &&
            dhb.schedule().total_scheduled() == 0) {
          if (seen_empty_full) ++*empty_replays;
          seen_empty_full = true;
        }
        const DhbRequestResult got = dhb.on_range(first, last);
        if (fc.client_stream_cap == 0) {
          ASSERT_EQ(got.cap_violations, 0);
        }
        if (fc.diff_oracle && fc.client_stream_cap > 0) {
          const NaiveOracle::Admission want =
              oracle.admit_capped(first, last, fc.client_stream_cap);
          ASSERT_EQ(got.plan.reception_slot, want.receptions)
              << "capped plan divergence at slot " << dhb.current_slot()
              << " for range " << first << ".." << last << " (cap "
              << fc.client_stream_cap << ", seed " << fc.seed << ")";
          ASSERT_EQ(got.new_instances, want.new_instances);
          ASSERT_EQ(got.shared_instances, want.shared_instances);
          ASSERT_EQ(got.cap_violations, want.cap_violations);
        } else if (fc.diff_oracle) {
          const std::vector<Slot> want = oracle.admit_range(first, last);
          ASSERT_EQ(got.plan.reception_slot, want)
              << "plan divergence at slot " << dhb.current_slot()
              << " for range " << first << ".." << last << " (heuristic "
              << to_string(fc.heuristic) << ", seed " << fc.seed << ")";
        }
        auditor.track_plan(got.plan, first, range_periods(dhb, first, last));
      }
      audit_now();
    }
  }
}

// VBR-style work-ahead periods (plateaus, T[j] > j allowed past the start)
// and deadline-critical tight periods (T[j] < j), both paper-§4 shapes.
std::vector<int> work_ahead_periods() {
  return {1, 3, 3, 5, 6, 6, 8, 10, 12, 14, 14, 16};
}
std::vector<int> tight_periods() {
  return {1, 2, 2, 3, 3, 4, 4, 5, 6, 6, 7, 8};
}

// Second differential axis: the production scheduler against itself, fast
// paths (placement index + same-slot coalescing) versus the naive Figure 6
// scans, fed one identical operation trace. Every plan, every transmission
// vector (exact order, not sorted — the fast path must not even reorder
// ring insertions), and every logical counter must match bit for bit.
// Unlike the NaiveOracle diff this also covers kRandom (both sides consume
// identical rng streams). Capped placements scan in both modes, so there
// it shows only that the fast-path knobs leave them alone; run_fuzz diffs
// their slot choices against NaiveOracle::admit_capped.
void run_mode_diff(const FuzzConfig& fc, uint64_t* checked) {
  DhbConfig base;
  base.num_segments = fc.num_segments;
  base.periods = fc.periods;
  base.heuristic = fc.heuristic;
  base.client_stream_cap = fc.client_stream_cap;
  base.heuristic_seed = fc.seed * 7 + 1;
  DhbConfig fast_config = base;
  fast_config.use_placement_index = true;
  // Cutover 0: always exercise the index, even for videos small enough
  // that the adaptive cutover would route production traffic to the naive
  // scan (the fuzzer's whole point is diffing the two implementations).
  fast_config.placement_index_cutover = 0;
  fast_config.coalesce_same_slot = true;
  DhbConfig naive_config = base;
  naive_config.use_placement_index = false;
  naive_config.coalesce_same_slot = false;
  DhbScheduler fast(fast_config);
  DhbScheduler naive(naive_config);
  Rng rng(fc.seed);
  // Separate stream for the slab probes so they don't perturb the
  // operation trace both schedulers consume.
  Rng probe_rng(fc.seed * 31 + 11);

  // Slab-layout probe: the batched raw-ring scans must reproduce the
  // indexed range-min bit for bit on every scheduler whose schedule keeps
  // an index (the fast side: cutover 0) — the O(width) naive reference
  // path and the O(log W) index are two readers of the same flat slabs.
  const auto probe_slabs = [&](const DhbScheduler& d) {
    const SlotSchedule& sched = d.schedule();
    if (!sched.has_placement_index()) return;
    const Slot now = sched.now();
    const auto w = static_cast<uint64_t>(sched.window());
    for (int probe = 0; probe < 3; ++probe) {
      const Slot lo = now + 1 + static_cast<Slot>(probe_rng.uniform_index(w));
      const Slot hi = lo + static_cast<Slot>(probe_rng.uniform_index(
                               static_cast<uint64_t>(now + sched.window() -
                                                     lo + 1)));
      const SlotSchedule::MinLoad want_l = sched.min_load_latest(lo, hi);
      const SlotSchedule::MinLoad got_l = sched.scan_min_load_latest(lo, hi);
      ASSERT_EQ(got_l.slot, want_l.slot)
          << "scan/index divergence (latest) at slot " << now << " ["
          << lo << "," << hi << "] seed " << fc.seed;
      ASSERT_EQ(got_l.load, want_l.load);
      const SlotSchedule::MinLoad want_e = sched.min_load_earliest(lo, hi);
      const SlotSchedule::MinLoad got_e = sched.scan_min_load_earliest(lo, hi);
      ASSERT_EQ(got_e.slot, want_e.slot)
          << "scan/index divergence (earliest) at slot " << now << " ["
          << lo << "," << hi << "] seed " << fc.seed;
      ASSERT_EQ(got_e.load, want_e.load);
    }
  };

  const auto compare_results = [&](const DhbRequestResult& a,
                                   const DhbRequestResult& b) {
    ASSERT_EQ(a.plan.arrival_slot, b.plan.arrival_slot);
    ASSERT_EQ(a.plan.reception_slot, b.plan.reception_slot)
        << "mode divergence at slot " << fast.current_slot() << " (heuristic "
        << to_string(fc.heuristic) << ", seed " << fc.seed << ")";
    ASSERT_EQ(a.new_instances, b.new_instances);
    ASSERT_EQ(a.shared_instances, b.shared_instances);
    ASSERT_EQ(a.cap_violations, b.cap_violations);
    ++*checked;
  };
  const auto compare_counters = [&]() {
    // work_units and coalesced_requests intentionally differ between the
    // modes; every logical counter must not.
    ASSERT_EQ(fast.total_requests(), naive.total_requests());
    ASSERT_EQ(fast.total_new_instances(), naive.total_new_instances());
    ASSERT_EQ(fast.total_shared(), naive.total_shared());
    ASSERT_EQ(fast.total_slot_probes(), naive.total_slot_probes());
    ASSERT_EQ(fast.total_rejected_admissions(),
              naive.total_rejected_admissions());
  };

  for (int slot = 0; slot < fc.slots && !testing::Test::HasFailure(); ++slot) {
    const std::span<const Segment> fast_sent = fast.advance_slot_view();
    ASSERT_TRUE(std::ranges::equal(fast_sent, naive.advance_slot_view()))
        << "transmission divergence entering slot " << fast.current_slot()
        << " (heuristic " << to_string(fc.heuristic) << ", seed " << fc.seed
        << ")";
    probe_slabs(fast);
    probe_slabs(naive);

    uint64_t pending = rng.poisson(fc.arrivals_per_slot);
    while (pending > 0 && !testing::Test::HasFailure()) {
      Segment first = 1;
      Segment last = static_cast<Segment>(fc.num_segments);
      const double op = fc.mixed_ops ? rng.uniform() : 1.0;
      if (op < 0.2) {  // resume
        first = static_cast<Segment>(
            1 + rng.uniform_index(static_cast<uint64_t>(fc.num_segments)));
      } else if (op < 0.4) {  // range
        first = static_cast<Segment>(
            1 + rng.uniform_index(static_cast<uint64_t>(fc.num_segments)));
        last = static_cast<Segment>(
            first + static_cast<Segment>(rng.uniform_index(
                        static_cast<uint64_t>(fc.num_segments - first + 1))));
      }

      if (fc.bounded_cap > 0 && first == 1 && last == fc.num_segments) {
        const std::optional<DhbRequestResult> a =
            fast.on_request_bounded(fc.bounded_cap);
        const std::optional<DhbRequestResult> b =
            naive.on_request_bounded(fc.bounded_cap);
        ASSERT_EQ(a.has_value(), b.has_value())
            << "bounded verdict divergence at slot " << fast.current_slot();
        if (a) compare_results(*a, *b);
        --pending;
      } else if (first == 1 && last == fc.num_segments && pending >= 2 &&
                 fc.client_stream_cap == 0 && rng.uniform() < 0.5) {
        // Batch entry point: one on_request_batch(k) on the fast side must
        // equal k sequential naive admissions — every follower included.
        const uint64_t k =
            2 + rng.uniform_index(pending - 1);  // 2..pending
        const DhbRequestResult a = fast.on_request_batch(k);
        DhbRequestResult b;
        for (uint64_t i = 0; i < k; ++i) b = naive.on_request();
        compare_results(a, b);
        pending -= k;
      } else {
        compare_results(fast.on_range(first, last),
                        naive.on_range(first, last));
        --pending;
      }
      compare_counters();
    }
  }
}

TEST(FuzzScheduleAudit, DeterministicHeuristicsAgainstOracle) {
  const SlotHeuristic heuristics[] = {
      SlotHeuristic::kMinLoadLatest, SlotHeuristic::kMinLoadEarliest,
      SlotHeuristic::kLatest, SlotHeuristic::kEarliest};
  const std::vector<std::vector<int>> period_vectors = {
      {}, work_ahead_periods(), tight_periods()};
  uint64_t audited = 0;
  uint64_t seed = 100;
  for (SlotHeuristic h : heuristics) {
    for (const std::vector<int>& periods : period_vectors) {
      FuzzConfig fc;
      fc.heuristic = h;
      fc.periods = periods;
      fc.seed = ++seed;
      fc.slots = 300;
      run_fuzz(fc, &audited);
      if (testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GE(audited, 6000u);
}

TEST(FuzzScheduleAudit, MixedResumeRangeOpsAgainstOracle) {
  const SlotHeuristic heuristics[] = {SlotHeuristic::kMinLoadLatest,
                                      SlotHeuristic::kMinLoadEarliest};
  const std::vector<std::vector<int>> period_vectors = {{},
                                                        work_ahead_periods()};
  uint64_t audited = 0;
  uint64_t seed = 200;
  for (SlotHeuristic h : heuristics) {
    for (const std::vector<int>& periods : period_vectors) {
      FuzzConfig fc;
      fc.heuristic = h;
      fc.periods = periods;
      fc.mixed_ops = true;
      fc.arrivals_per_slot = 1.2;
      fc.seed = ++seed;
      fc.slots = 400;
      run_fuzz(fc, &audited);
      if (testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GE(audited, 2500u);
}

// Sparse arrivals (about one per 20 slots against windows of 8 to 16
// slots): most admissions find the schedule drained, so after each
// scheduler's first one they are replayed from its recorded empty-schedule
// plan. The mixed-ops pass diffs prefix and clamped admissions into an
// empty schedule too, which must keep running the Figure 6 loop.
TEST(FuzzScheduleAudit, SparseEmptyScheduleAdmissionsAgainstOracle) {
  const SlotHeuristic heuristics[] = {
      SlotHeuristic::kMinLoadLatest, SlotHeuristic::kMinLoadEarliest,
      SlotHeuristic::kLatest, SlotHeuristic::kEarliest};
  const std::vector<std::vector<int>> period_vectors = {
      {}, work_ahead_periods(), tight_periods()};
  uint64_t audited = 0;
  uint64_t replays = 0;
  uint64_t seed = 900;
  for (SlotHeuristic h : heuristics) {
    for (const std::vector<int>& periods : period_vectors) {
      FuzzConfig fc;
      fc.heuristic = h;
      fc.periods = periods;
      fc.arrivals_per_slot = 0.05;
      fc.seed = ++seed;
      fc.slots = 2000;
      run_fuzz(fc, &audited, &replays);
      if (testing::Test::HasFailure()) return;
    }
  }
  FuzzConfig mixed;
  mixed.periods = work_ahead_periods();
  mixed.mixed_ops = true;
  mixed.arrivals_per_slot = 0.05;
  mixed.seed = ++seed;
  mixed.slots = 4000;
  run_fuzz(mixed, &audited, &replays);
  EXPECT_GE(audited, 25000u);
  // 881 at the time of writing: the floor proves the replay path is taken.
  EXPECT_GE(replays, 400u);
}

TEST(FuzzScheduleAudit, BoundedAdmissionAgainstOracle) {
  FuzzConfig fc;
  fc.bounded_cap = 3;
  fc.arrivals_per_slot = 1.5;  // push into rejection territory
  fc.seed = 300;
  fc.slots = 500;
  uint64_t audited = 0;
  run_fuzz(fc, &audited);
  EXPECT_GE(audited, 800u);
}

TEST(FuzzScheduleAudit, RandomHeuristicAuditOnly) {
  FuzzConfig fc;
  fc.heuristic = SlotHeuristic::kRandom;
  fc.diff_oracle = false;
  fc.seed = 400;
  fc.slots = 400;
  uint64_t audited = 0;
  run_fuzz(fc, &audited);
  fc.mixed_ops = true;
  fc.seed = 401;
  run_fuzz(fc, &audited);
  EXPECT_GE(audited, 1000u);
}

// Capped placements diffed decision by decision against
// NaiveOracle::admit_capped. Under CBR periods at cap 1 every segment has
// exactly one open slot; work-ahead periods leave ties to break, and tight
// periods (T[j] < j) overflow the cap, so the uncapped fallback runs. The
// last pass pins that the capped rule ignores the configured heuristic.
TEST(FuzzScheduleAudit, CappedClientAgainstOracle) {
  const std::vector<std::vector<int>> period_vectors = {
      {}, work_ahead_periods(), tight_periods()};
  uint64_t audited = 0;
  uint64_t seed = 500;
  for (int cap : {1, 2}) {
    for (const std::vector<int>& periods : period_vectors) {
      FuzzConfig fc;
      fc.client_stream_cap = cap;
      fc.periods = periods;
      fc.arrivals_per_slot = 1.5;
      fc.seed = ++seed;
      fc.slots = 300;
      run_fuzz(fc, &audited);
      if (testing::Test::HasFailure()) return;
    }
    FuzzConfig mixed;
    mixed.client_stream_cap = cap;
    mixed.periods = work_ahead_periods();
    mixed.mixed_ops = true;
    mixed.arrivals_per_slot = 1.5;
    mixed.seed = ++seed;
    mixed.slots = 300;
    run_fuzz(mixed, &audited);
    if (testing::Test::HasFailure()) return;
  }
  FuzzConfig earliest;
  earliest.client_stream_cap = 2;
  earliest.heuristic = SlotHeuristic::kEarliest;
  earliest.periods = work_ahead_periods();
  earliest.arrivals_per_slot = 1.5;
  earliest.seed = ++seed;
  earliest.slots = 300;
  run_fuzz(earliest, &audited);
  EXPECT_GE(audited, 4000u);
}

TEST(FuzzModeDiff, AllHeuristicsAllPeriodVectors) {
  const SlotHeuristic heuristics[] = {
      SlotHeuristic::kMinLoadLatest, SlotHeuristic::kMinLoadEarliest,
      SlotHeuristic::kLatest, SlotHeuristic::kEarliest,
      SlotHeuristic::kRandom};
  const std::vector<std::vector<int>> period_vectors = {
      {}, work_ahead_periods(), tight_periods()};
  uint64_t checked = 0;
  uint64_t seed = 600;
  for (SlotHeuristic h : heuristics) {
    for (const std::vector<int>& periods : period_vectors) {
      FuzzConfig fc;
      fc.heuristic = h;
      fc.periods = periods;
      fc.arrivals_per_slot = 2.0;  // same-slot bursts exercise coalescing
      fc.seed = ++seed;
      fc.slots = 300;
      run_mode_diff(fc, &checked);
      if (testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GE(checked, 5000u);
}

TEST(FuzzModeDiff, MixedResumeRangeOps) {
  const std::vector<std::vector<int>> period_vectors = {
      {}, work_ahead_periods(), tight_periods()};
  uint64_t checked = 0;
  uint64_t seed = 700;
  for (const std::vector<int>& periods : period_vectors) {
    FuzzConfig fc;
    fc.periods = periods;
    fc.mixed_ops = true;
    fc.arrivals_per_slot = 1.5;
    fc.seed = ++seed;
    fc.slots = 400;
    run_mode_diff(fc, &checked);
    if (testing::Test::HasFailure()) return;
  }
  EXPECT_GE(checked, 1500u);
}

TEST(FuzzModeDiff, BoundedAdmission) {
  FuzzConfig fc;
  fc.bounded_cap = 3;
  fc.arrivals_per_slot = 1.5;  // push into rejection territory
  fc.seed = 800;
  fc.slots = 500;
  uint64_t checked = 0;
  run_mode_diff(fc, &checked);
  fc.mixed_ops = true;  // bounded admissions interleaved with resumes/ranges
  fc.seed = 801;
  run_mode_diff(fc, &checked);
  EXPECT_GE(checked, 900u);
}

// Switch-injection mode (ISSUE 7): drives an AdaptiveVideo with random
// per-slot Poisson arrivals AND randomly injected protocol switches
// (force_mode at random slots, on top of the controller's own decisions),
// while a TransitionAuditor checks from the outside that no committed
// reception is ever missed — the migration invariant under adversarial
// switch timing. Every slot is one audited step.
struct SwitchFuzzConfig {
  int num_segments = 20;
  int slots = 2000;
  double arrivals_per_slot = 0.8;
  double switch_prob = 0.05;  // per-slot chance of a forced random mode
  uint64_t min_dwell = 1;     // 1 = worst case: a switch every slot is legal
  uint64_t seed = 1;
};

void run_switch_fuzz(const SwitchFuzzConfig& sc, uint64_t* audited) {
  static std::map<int, NpbMapping> mappings;
  auto it = mappings.find(sc.num_segments);
  if (it == mappings.end()) {
    auto built = NpbMapping::build(NpbMapping::streams_for(sc.num_segments),
                                   sc.num_segments);
    ASSERT_TRUE(built.has_value());
    it = mappings.emplace(sc.num_segments, *built).first;
  }

  AdaptiveVideoConfig config;
  config.num_segments = sc.num_segments;
  config.ewma.half_life_slots = 8.0;  // nervous estimator: more real churn
  config.controller.min_dwell_slots = sc.min_dwell;
  TransitionAuditor auditor;
  AdaptiveVideo video(config, &it->second, &auditor);
  Rng rng(sc.seed);

  for (int slot = 0; slot < sc.slots && !testing::Test::HasFailure(); ++slot) {
    video.advance_slot();
    video.on_slot_arrivals(rng.poisson(sc.arrivals_per_slot));
    if (rng.uniform() < sc.switch_prob) {
      video.force_mode(static_cast<ServingMode>(rng.uniform_index(3)));
    }
    ASSERT_TRUE(auditor.report().ok())
        << "seed=" << sc.seed << " n=" << sc.num_segments << " slot="
        << video.now() << ": " << auditor.report().to_string();
    ++*audited;
  }
  // Drain: every committed reception is due within one window/period of the
  // last admission; nothing may be left owed once the horizon passes.
  for (int i = 0; i < 2 * sc.num_segments + 2; ++i) {
    video.advance_slot();
    video.on_slot_arrivals(0);
    ++*audited;
  }
  ASSERT_TRUE(auditor.report().ok()) << auditor.report().to_string();
  EXPECT_EQ(auditor.pending_receptions(), 0u) << "seed=" << sc.seed;
  EXPECT_GT(auditor.transitions_seen(), 0u) << "seed=" << sc.seed;
  EXPECT_GT(auditor.receptions_checked(), 0u);
}

TEST(FuzzSwitchInjection, MigrationInvariantUnderRandomSwitching) {
  // The acceptance bar: > 10k audited steps with switches injected at
  // random points, across video sizes, arrival intensities, and dwell
  // configurations — zero violations, nothing left undelivered.
  uint64_t audited = 0;
  uint64_t seed = 1000;

  for (int n : {1, 5, 20}) {
    SwitchFuzzConfig sc;
    sc.num_segments = n;
    sc.seed = ++seed;
    run_switch_fuzz(sc, &audited);
    if (testing::Test::HasFailure()) return;
  }

  // Sparse arrivals: long idle stretches (the scheduler-clock-offset and
  // lazy-creation paths), switches landing on empty schedules.
  {
    SwitchFuzzConfig sc;
    sc.arrivals_per_slot = 0.05;
    sc.switch_prob = 0.1;
    sc.seed = ++seed;
    run_switch_fuzz(sc, &audited);
    if (testing::Test::HasFailure()) return;
  }

  // Dense arrivals + maximal switch pressure.
  {
    SwitchFuzzConfig sc;
    sc.arrivals_per_slot = 3.0;
    sc.switch_prob = 0.3;
    sc.seed = ++seed;
    run_switch_fuzz(sc, &audited);
    if (testing::Test::HasFailure()) return;
  }

  // A realistic dwell: forced switches queue behind the controller's own
  // hysteresis decisions instead of committing immediately.
  {
    SwitchFuzzConfig sc;
    sc.min_dwell = 32;
    sc.switch_prob = 0.15;
    sc.seed = ++seed;
    run_switch_fuzz(sc, &audited);
    if (testing::Test::HasFailure()) return;
  }

  EXPECT_GE(audited, 10000u);
}

TEST(FuzzModeDiff, CappedClient) {
  FuzzConfig fc;
  fc.client_stream_cap = 2;
  fc.arrivals_per_slot = 1.5;
  fc.seed = 900;
  fc.slots = 400;
  uint64_t checked = 0;
  run_mode_diff(fc, &checked);
  fc.client_stream_cap = 1;  // saturates instantly: fallback-heavy
  fc.seed = 901;
  run_mode_diff(fc, &checked);
  EXPECT_GE(checked, 1000u);
}

}  // namespace
}  // namespace vod
