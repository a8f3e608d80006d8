#include "core/dhb.h"

#include <algorithm>
#include <numeric>

#include "obs/qoe.h"
#include "obs/trace.h"
#include "util/check.h"

namespace vod {

namespace {

// Work-unit prices (total_work_units()). A sharing check costs one unit on
// every path (the latest-instance cache answers it, and the per-segment
// fallback lists are O(1) amortized). A placement attempt costs its query
// plus, when an instance is actually placed, one commit unit:
//   index query (uncapped, above the cutover): 1,            commit = 1
//   scan (below the cutover; capped; bounded): window width, commit = 1
// Rejected bounded attempts pay their queries but no commit. An admission
// replayed from the recorded empty-schedule plan places every segment and
// pays the index price on both sides of the cutover: share probe + query +
// commit = 3 per segment, i.e. 3n >= 1 + 2n. The pricing guarantees the
// auditor's conservation law
//   work_units >= requests + 2 * new_instances + rejected
// on every path (each admitted request makes >= 1 sharing check; each
// placement costs >= 2; each rejection pays >= 1 query).
constexpr uint64_t kWorkShareProbe = 1;
constexpr uint64_t kWorkIndexQuery = 1;
constexpr uint64_t kWorkCommit = 1;
constexpr uint64_t kWorkMemoCopy = 1;

// QoE recording for one capped admission: startup wait = first reception
// minus arrival, and its cap_violations as the late segments. The
// admission window for segment j is (arrival, arrival + T[j]], and S_1's
// is the one slot after the arrival (Figure 6), so an uncapped client
// always starts one slot after it arrives and misses no deadline: only a
// capped client's continuity can vary, and only its admissions are
// recorded. A constant-nullptr current_qoe() folds the whole block away
// under VOD_OBSERVE=OFF.
inline void record_capped_qoe(const DhbRequestResult& result) {
  if (obs::QoeShard* qoe = obs::current_qoe()) {
    qoe->record_admission(
        1, result.plan.arrival_slot,
        static_cast<double>(result.plan.reception_slot.front() -
                            result.plan.arrival_slot),
        static_cast<uint64_t>(result.cap_violations),
        static_cast<uint64_t>(result.plan.reception_slot.size()));
  }
}

// Resolves the period vector: empty config means the CBR base protocol
// T[j] = j (the window of the paper's Figure 6).
std::vector<int> resolve_periods(const DhbConfig& config) {
  // Validated here rather than in the constructor body: member initializers
  // run first, and an empty period vector would be dereferenced below.
  VOD_CHECK_MSG(config.num_segments >= 1, "need at least one segment");
  std::vector<int> t = config.periods;
  if (t.empty()) {
    t.resize(static_cast<size_t>(config.num_segments));
    for (int j = 1; j <= config.num_segments; ++j) {
      t[static_cast<size_t>(j - 1)] = j;
    }
  }
  VOD_CHECK_MSG(static_cast<int>(t.size()) == config.num_segments,
                "periods vector must have one entry per segment");
  VOD_CHECK_MSG(t[0] == 1, "T[1] must be 1: S_1 is needed in the next slot");
  for (int v : t) VOD_CHECK_MSG(v >= 1, "periods must be positive");
  return t;
}

}  // namespace

DhbScheduler::DhbScheduler(const DhbConfig& config)
    : config_(config),
      periods_(resolve_periods(config)),
      window_(*std::max_element(periods_.begin(), periods_.end())),
      use_index_(config.use_placement_index &&
                 static_cast<uint64_t>(config.num_segments) *
                         static_cast<uint64_t>(window_) >=
                     config.placement_index_cutover),
      sum_periods_(std::accumulate(periods_.begin(), periods_.end(),
                                   uint64_t{0},
                                   [](uint64_t acc, int t) {
                                     return acc + static_cast<uint64_t>(t);
                                   })),
      schedule_(config.num_segments, window_, use_index_),
      rng_(config.heuristic_seed) {
  VOD_CHECK(config.client_stream_cap >= 0);
  // Pre-size the reusable plan storage: steady-state admissions then run
  // allocation-free (tests/alloc_audit_test.cc pins this down).
  const size_t n = static_cast<size_t>(config.num_segments);
  result_scratch_.plan.reception_slot.reserve(n);
  memo_result_.plan.reception_slot.reserve(n);
  if (config.client_stream_cap > 0) {
    window_counts_.resize(static_cast<size_t>(window_));
  }
}

void DhbScheduler::export_metrics(obs::MetricShard* out) const {
  const auto add = [out](const char* name, uint64_t value) {
    out->counter(name)->inc(value);
  };
  add("dhb_requests_total", requests_);
  add("dhb_new_instances_total", new_instances_);
  add("dhb_shared_instances_total", shared_);
  add("dhb_slot_probes_total", probes_);
  add("dhb_rejected_admissions_total", rejected_);
  add("dhb_work_units_total", work_);
  add("dhb_coalesced_requests_total", coalesced_);
  add("dhb_admissions_placed_total", admissions_placed_);
  add("dhb_admissions_all_shared_total", admissions_all_shared_);
  add("dhb_cap_violation_slots_total", cap_violations_);
  add("schedule_instances_added_total", schedule_.total_instances_added());
  add("schedule_advances_total", static_cast<uint64_t>(schedule_.now()));
  add("schedule_index_queries_total", index_queries_);
  add("schedule_index_updates_total", schedule_.total_index_updates());
  // Memory-behavior meter (DESIGN.md §14): slab re-layouts, which the
  // steady-state allocation audit asserts flat.
  add("schedule_slab_grows_total", schedule_.total_slab_grows());
}

std::optional<Slot> DhbScheduler::choose_capped_slot(Slot lo, Slot hi,
                                                     const int* client_load,
                                                     Slot arrival) const {
  // Capped mode always applies the paper's min-load-latest rule, restricted
  // to slots where this client can still open a stream.
  std::optional<Slot> best;
  int best_load = 0;
  for (Slot s = hi; s >= lo; --s) {
    if (client_load[static_cast<size_t>(s - arrival - 1)] >=
        config_.client_stream_cap) {
      continue;
    }
    const int m = schedule_.load(s);
    if (!best || m < best_load) {
      best = s;
      best_load = m;
    }
  }
  return best;
}

DhbRequestResult DhbScheduler::on_request() {
  return admit_batch(1, config_.num_segments, 1);
}

DhbRequestResult DhbScheduler::on_request_batch(uint64_t count) {
  return admit_batch(1, config_.num_segments, count);
}

void DhbScheduler::on_request_batch_discard(uint64_t count) {
  admit_batch(1, config_.num_segments, count);
}

DhbRequestResult DhbScheduler::on_range(Segment first_segment,
                                        Segment last_segment) {
  return admit_batch(first_segment, last_segment, 1);
}

const DhbRequestResult& DhbScheduler::admit_batch(Segment first_segment,
                                                  Segment last_segment,
                                                  uint64_t count) {
  VOD_DCHECK_SERIAL(serial_);  // covers the memo path, which skips admit()
  VOD_CHECK_MSG(count >= 1, "an admission needs at least one request");
  const int n = config_.num_segments;
  if (!config_.coalesce_same_slot || config_.client_stream_cap != 0 ||
      first_segment != 1 || last_segment != n) {
    for (uint64_t i = 0; i < count; ++i) admit(first_segment, last_segment);
    return result_scratch_;
  }
  uint64_t followers = count;
  if (!memo_valid_) {
    // Leader: one real admission. The memo caches the *follower* view:
    // same plan, everything shared.
    admit(1, n);
    memo_result_ = result_scratch_;
    memo_result_.new_instances = 0;
    memo_result_.shared_instances = n;
    memo_valid_ = true;
    if (--followers == 0) return result_scratch_;
  }
  // Followers: the leader already forced every segment into the window, so
  // each further request shares all of them — the plan is the leader's, no
  // heuristic runs, no rng is consumed, and the counters advance in bulk
  // exactly as `followers` sequential re-admissions' would.
  requests_ += followers;
  shared_ += followers * static_cast<uint64_t>(n);
  probes_ += followers * sum_periods_;
  work_ += followers * kWorkMemoCopy;
  coalesced_ += followers;
  admissions_all_shared_ += followers;
  return memo_result_;
}

std::vector<int> DhbScheduler::resume_periods(Segment first_segment) const {
  VOD_CHECK(first_segment >= 1 && first_segment <= config_.num_segments);
  std::vector<int> out;
  out.reserve(static_cast<size_t>(config_.num_segments - first_segment + 1));
  for (Segment j = first_segment; j <= config_.num_segments; ++j) {
    out.push_back(std::min(periods_[static_cast<size_t>(j - 1)],
                           static_cast<int>(j - first_segment + 1)));
  }
  return out;
}

// Inlined into admit_batch(), its only caller, so the leader call of a
// full request compiles to a copy specialized for first_segment == 1 —
// the hot admission path, which the generic loop slows by about a tenth.
[[gnu::always_inline]] inline void DhbScheduler::admit(
    Segment first_segment, Segment last_segment) {
  VOD_CHECK(first_segment >= 1 && first_segment <= config_.num_segments);
  VOD_CHECK(last_segment >= first_segment &&
            last_segment <= config_.num_segments);
  // Any admission through here may place instances under windows that
  // differ from a full request's, so the same-slot memo goes stale.
  memo_valid_ = false;
  const Slot arrival = schedule_.now();
  const int n = last_segment;
  const int cap = config_.client_stream_cap;
  const bool fast = use_index_;
  // Whether an uncapped placement queries the index: only the min-load
  // rules read loads at all.
  const bool index_query =
      fast && (config_.heuristic == SlotHeuristic::kMinLoadLatest ||
               config_.heuristic == SlotHeuristic::kMinLoadEarliest);
  if (first_segment != 1) had_clamped_admissions_ = true;
  // A full uncapped admission into an empty schedule under a deterministic
  // rule: replay the recorded plan, or run the loop and record it.
  const bool empty_full = cap == 0 && first_segment == 1 &&
                          last_segment == config_.num_segments &&
                          config_.heuristic != SlotHeuristic::kRandom &&
                          schedule_.total_scheduled() == 0;
  if (empty_full && !empty_plan_.empty()) {
    replay_empty_plan();
    return;
  }

  DhbRequestResult& result = result_scratch_;
  result.new_instances = 0;
  result.shared_instances = 0;
  result.cap_violations = 0;
  result.plan.arrival_slot = arrival;
  result.plan.reception_slot.resize(
      static_cast<size_t>(n - first_segment + 1));

  // Client reception load per window slot (capped mode only); index k is
  // slot arrival + 1 + k.
  int* client_load = nullptr;
  if (cap > 0) {
    std::fill(window_counts_.begin(), window_counts_.end(), 0);
    client_load = window_counts_.data();
  }

  for (Segment j = first_segment; j <= n; ++j) {
    const Slot lo = arrival + 1;
    // Full requests use the configured windows (which may exceed j under
    // §4 work-ahead). A resume watches S_j during slot
    // arrival + j - first + 1, so its deadline conservatively clamps the
    // window (work-ahead surplus is not assumed for mid-video joins).
    const int period =
        first_segment == 1
            ? periods_[static_cast<size_t>(j - 1)]
            : std::min(periods_[static_cast<size_t>(j - 1)],
                       static_cast<int>(j - first_segment + 1));
    const Slot hi = arrival + period;
    const uint64_t width = static_cast<uint64_t>(hi - lo + 1);
    probes_ += width;

    Slot chosen = 0;
    bool is_new = false;

    if (cap == 0) {
      work_ += kWorkShareProbe;
      if (std::optional<Slot> shared = schedule_.find_instance(j, hi)) {
        chosen = *shared;
      } else {
        chosen = choose_slot(config_.heuristic, schedule_, lo, hi, &rng_,
                             fast);
        is_new = true;
        work_ += (fast ? kWorkIndexQuery : width) + kWorkCommit;
        if (index_query) ++index_queries_;
      }
    } else {
      // Prefer sharing an instance in a slot with remaining client capacity
      // (latest such instance: least buffering, most future sharing).
      work_ += kWorkShareProbe;
      const std::span<const Slot> existing = schedule_.instances_of(j);
      for (auto it = existing.rbegin(); it != existing.rend(); ++it) {
        if (*it < lo || *it > hi) continue;
        if (client_load[static_cast<size_t>(*it - lo)] < cap) {
          chosen = *it;
          break;
        }
      }
      if (chosen == 0) {
        // Min-load-latest restricted to client-unsaturated slots: a scan
        // of the window, with or without an index.
        work_ += width;
        if (std::optional<Slot> fresh =
                choose_capped_slot(lo, hi, client_load, arrival)) {
          chosen = *fresh;
          is_new = true;
          work_ += kWorkCommit;
        } else {
          // The cap cannot be honoured anywhere in the window. Fall back to
          // the uncapped rule and record the violation: the plan stays
          // deadline-correct but the STB needs > cap streams for one slot.
          ++result.cap_violations;
          ++cap_violations_;
          work_ += kWorkShareProbe;
          if (std::optional<Slot> shared = schedule_.find_instance(j, hi)) {
            chosen = *shared;
          } else {
            chosen = schedule_.scan_min_load_latest(lo, hi).slot;
            is_new = true;
            work_ += width + kWorkCommit;
          }
        }
      }
    }

    if (is_new) {
      schedule_.add_instance(j, chosen);
      ++result.new_instances;
    } else {
      ++result.shared_instances;
    }
    if (cap > 0) ++client_load[static_cast<size_t>(chosen - lo)];
    result.plan.reception_slot[static_cast<size_t>(j - first_segment)] =
        chosen;
  }

  if (empty_full) record_empty_plan();
  if (cap > 0) record_capped_qoe(result);
  finish_admission(result);
}

// Both out of line, so that the inlined admission loop stays compact.
[[gnu::noinline]] void DhbScheduler::record_empty_plan() {
  const ClientPlan& plan = result_scratch_.plan;
  empty_plan_.resize(plan.reception_slot.size());
  for (size_t k = 0; k < empty_plan_.size(); ++k) {
    empty_plan_[k] = plan.reception_slot[k] - plan.arrival_slot;
  }
}

[[gnu::noinline]] void DhbScheduler::replay_empty_plan() {
  const Slot arrival = schedule_.now();
  const size_t n = empty_plan_.size();
  DhbRequestResult& result = result_scratch_;
  result.new_instances = static_cast<int>(n);
  result.shared_instances = 0;
  result.cap_violations = 0;
  result.plan.arrival_slot = arrival;
  result.plan.reception_slot.resize(n);
  // Same segment order as the loop, so the ring rows fill identically.
  for (size_t k = 0; k < n; ++k) {
    const Slot slot = arrival + empty_plan_[k];
    schedule_.add_instance(static_cast<Segment>(k + 1), slot);
    result.plan.reception_slot[k] = slot;
  }
  probes_ += sum_periods_;
  work_ += n * (kWorkShareProbe + kWorkIndexQuery + kWorkCommit);
  finish_admission(result);
}

void DhbScheduler::finish_admission(const DhbRequestResult& result) {
  ++requests_;
  new_instances_ += static_cast<uint64_t>(result.new_instances);
  shared_ += static_cast<uint64_t>(result.shared_instances);
  ++(result.new_instances > 0 ? admissions_placed_ : admissions_all_shared_);
}

std::optional<DhbRequestResult> DhbScheduler::on_request_bounded(
    int channel_cap) {
  VOD_DCHECK_SERIAL(serial_);
  VOD_CHECK(channel_cap >= 1);
  VOD_CHECK_MSG(config_.client_stream_cap == 0,
                "bounded admission assumes unlimited client bandwidth");
  // A successful bounded admission places instances the memoized plan does
  // not know about; a rejected one leaves the schedule untouched, but
  // invalidating unconditionally keeps the memo logic trivially safe.
  memo_valid_ = false;
  const Slot arrival = schedule_.now();
  const int n = config_.num_segments;

  // Tentative additions per window slot; nothing touches the schedule
  // until every segment has found a home.
  window_counts_.assign(static_cast<size_t>(window_), 0);
  placements_.clear();
  placements_.reserve(static_cast<size_t>(n));

  // Built in the reused scratch and copied out only on success, so a
  // refused attempt allocates nothing.
  DhbRequestResult& result = result_scratch_;
  result.new_instances = 0;
  result.shared_instances = 0;
  result.cap_violations = 0;
  result.plan.arrival_slot = arrival;
  result.plan.reception_slot.resize(static_cast<size_t>(n));

  for (Segment j = 1; j <= n; ++j) {
    const Slot lo = arrival + 1;
    const Slot hi = arrival + periods_[static_cast<size_t>(j - 1)];
    const uint64_t width = static_cast<uint64_t>(hi - lo + 1);
    probes_ += width;

    Slot chosen = 0;
    work_ += kWorkShareProbe;
    if (std::optional<Slot> shared = schedule_.find_instance(j, hi)) {
      chosen = *shared;
      ++result.shared_instances;
    } else {
      // Min-load-latest over slots still under the channel cap, counting
      // this request's own tentative placements: a scan of the window, with
      // or without an index.
      work_ += width;
      int best_load = channel_cap;
      for (Slot s = hi; s >= lo; --s) {
        const int load =
            schedule_.load(s) + window_counts_[static_cast<size_t>(s - lo)];
        if (load < best_load) {
          best_load = load;
          chosen = s;
        }
      }
      if (chosen == 0) {
        // Would exceed the cap: count the attempt, so the probes charged
        // above stay attributable (probes per attempt = probes /
        // (admitted + rejected)) instead of silently skewing the
        // per-admission cost metric.
        ++rejected_;
        VOD_TRACE_INSTANT("admission/rejected", "dhb", arrival,
                          {"segment", j}, {"channel_cap", channel_cap});
        return std::nullopt;
      }
      ++window_counts_[static_cast<size_t>(chosen - lo)];
      placements_.push_back(Placement{j, chosen});
      ++result.new_instances;
      work_ += kWorkCommit;
    }
    result.plan.reception_slot[static_cast<size_t>(j - 1)] = chosen;
  }

  for (const Placement& p : placements_) {
    schedule_.add_instance(p.segment, p.slot);
  }
  finish_admission(result);
  return result;
}

void DhbScheduler::set_heuristic(SlotHeuristic heuristic) {
  VOD_DCHECK_SERIAL(serial_);
  if (heuristic == config_.heuristic) return;
  config_.heuristic = heuristic;
  // The coalescing memo caches a plan whose placements ran under the old
  // rule; the first admission after the switch must re-admit (it still
  // shares every in-window instance — sharing precedes placement — but the
  // counters and any fresh placements must reflect the new rule). The
  // empty-schedule plan was placed by the old rule too.
  memo_valid_ = false;
  empty_plan_.clear();
  VOD_TRACE_INSTANT("heuristic/switch", "dhb", schedule_.now(),
                    {"heuristic", static_cast<int>(heuristic)});
}

}  // namespace vod
