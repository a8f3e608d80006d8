// NaiveOracle: the naive Figure 6 transcription the scheduler tests diff
// DhbScheduler against (dhb_oracle_test, fuzz_schedule_audit), and
// naive_verify_plan, the tree-walking playout verifier client_plan_test
// diffs verify_plan against. Used only by tests.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "core/heuristics.h"
#include "schedule/client_plan.h"
#include "schedule/types.h"

namespace vod {

// The Figure 6 algorithm on a plain map, generalized the same way the
// production scheduler is: clamped windows for mid-video joins, pluggable
// deterministic slot heuristics, client-capped admission, and two-phase
// channel-bounded admission.
class NaiveOracle {
 public:
  // What one admission reports: DhbRequestResult's plan and tallies.
  struct Admission {
    std::vector<Slot> receptions;  // index 0 = the first admitted segment
    int new_instances = 0;
    int shared_instances = 0;
    int cap_violations = 0;
  };

  NaiveOracle(int n, std::vector<int> periods, SlotHeuristic heuristic)
      : n_(n), periods_(std::move(periods)), heuristic_(heuristic) {
    if (periods_.empty()) {
      for (int j = 1; j <= n_; ++j) periods_.push_back(j);
    }
  }

  // Admits segments first..last; returns the chosen reception slot per
  // segment (index 0 = `first`).
  std::vector<Slot> admit_range(Segment first, Segment last) {
    std::vector<Slot> receptions;
    for (Segment j = first; j <= last; ++j) {
      const Slot lo = now_ + 1;
      const Slot hi = now_ + period_for(j, first);
      Slot chosen = find_shared(j, lo, hi);
      if (chosen == 0) {
        chosen = pick(lo, hi, [this](Slot s) { return load(s); });
        slots_[chosen].push_back(j);
      }
      receptions.push_back(chosen);
    }
    return receptions;
  }

  // Mirrors a DhbScheduler with client_stream_cap = cap > 0, whose client
  // receives at most `cap` segments in one slot. Per segment, whatever the
  // configured heuristic:
  //   1. share the latest in-window instance in a slot where the client
  //      still has capacity;
  //   2. else place a new instance at the min-load-latest slot among the
  //      slots where the client still has capacity;
  //   3. else apply the uncapped rule (share the latest in-window instance,
  //      else place at the min-load-latest slot) and count a violation.
  Admission admit_capped(Segment first, Segment last, int cap) {
    Admission out;
    std::map<Slot, int> client;  // this client's receptions per slot
    const auto has_capacity = [&client, cap](Slot s) {
      const auto it = client.find(s);
      return it == client.end() || it->second < cap;
    };
    for (Segment j = first; j <= last; ++j) {
      const Slot lo = now_ + 1;
      const Slot hi = now_ + period_for(j, first);
      Slot chosen = find_shared(j, lo, hi, has_capacity);
      bool is_new = false;
      if (chosen == 0) {
        chosen = min_load_latest(lo, hi, has_capacity);
        is_new = chosen != 0;
      }
      if (chosen == 0) {
        ++out.cap_violations;
        chosen = find_shared(j, lo, hi);
        if (chosen == 0) {
          chosen = min_load_latest(lo, hi, [](Slot) { return true; });
          is_new = true;
        }
      }
      if (is_new) {
        slots_[chosen].push_back(j);
        ++out.new_instances;
      } else {
        ++out.shared_instances;
      }
      ++client[chosen];
      out.receptions.push_back(chosen);
    }
    return out;
  }

  // Mirrors DhbScheduler::on_request_bounded: all-or-nothing admission
  // under a hard per-slot stream budget, min-load-latest over under-cap
  // slots, counting this request's own tentative placements.
  std::optional<std::vector<Slot>> admit_bounded(int cap) {
    std::map<Slot, int> added;
    std::vector<std::pair<Segment, Slot>> placements;
    std::vector<Slot> receptions;
    for (Segment j = 1; j <= n_; ++j) {
      const Slot lo = now_ + 1;
      const Slot hi = now_ + periods_[static_cast<size_t>(j - 1)];
      Slot chosen = find_shared(j, lo, hi);
      if (chosen == 0) {
        int best_load = cap;
        for (Slot s = hi; s >= lo; --s) {
          const int m = load(s) + added[s];
          if (m < best_load) {
            best_load = m;
            chosen = s;
          }
        }
        if (chosen == 0) return std::nullopt;  // no mutation happened
        ++added[chosen];
        placements.push_back({j, chosen});
      }
      receptions.push_back(chosen);
    }
    for (const auto& [segment, slot] : placements) {
      slots_[slot].push_back(segment);
    }
    return receptions;
  }

  std::vector<Segment> advance() {
    ++now_;
    std::vector<Segment> out = slots_[now_];
    slots_.erase(now_);
    return out;
  }

 private:
  int period_for(Segment j, Segment first) const {
    const int t = periods_[static_cast<size_t>(j - 1)];
    return first == 1 ? t : std::min(t, static_cast<int>(j - first + 1));
  }

  int load(Slot s) const {
    const auto it = slots_.find(s);
    return it == slots_.end() ? 0 : static_cast<int>(it->second.size());
  }

  // Latest already-scheduled instance of j in [lo, hi], 0 when none — the
  // same sharing rule SlotSchedule::find_instance implements.
  Slot find_shared(Segment j, Slot lo, Slot hi) const {
    return find_shared(j, lo, hi, [](Slot) { return true; });
  }

  // The same, over the slots for which usable(s) holds.
  template <typename Usable>
  Slot find_shared(Segment j, Slot lo, Slot hi, Usable usable) const {
    for (Slot s = hi; s >= lo; --s) {
      const auto it = slots_.find(s);
      if (it == slots_.end() || !usable(s)) continue;
      if (std::find(it->second.begin(), it->second.end(), j) !=
          it->second.end()) {
        return s;
      }
    }
    return 0;
  }

  // The latest of the least-loaded slots of [lo, hi] for which usable(s)
  // holds, 0 when it holds for none.
  template <typename Usable>
  Slot min_load_latest(Slot lo, Slot hi, Usable usable) const {
    std::optional<int> m_min;
    for (Slot s = lo; s <= hi; ++s) {
      if (usable(s)) m_min = std::min(m_min.value_or(load(s)), load(s));
    }
    if (!m_min) return 0;
    for (Slot s = hi; s >= lo; --s) {
      if (usable(s) && load(s) == *m_min) return s;
    }
    return 0;
  }

  template <typename LoadFn>
  Slot pick(Slot lo, Slot hi, LoadFn load_at) const {
    switch (heuristic_) {
      case SlotHeuristic::kLatest:
        return hi;
      case SlotHeuristic::kEarliest:
        return lo;
      case SlotHeuristic::kMinLoadLatest:
      case SlotHeuristic::kMinLoadEarliest: {
        int m_min = load_at(lo);
        for (Slot s = lo; s <= hi; ++s) m_min = std::min(m_min, load_at(s));
        if (heuristic_ == SlotHeuristic::kMinLoadEarliest) {
          for (Slot s = lo; s <= hi; ++s) {
            if (load_at(s) == m_min) return s;
          }
        }
        for (Slot s = hi; s >= lo; --s) {
          if (load_at(s) == m_min) return s;
        }
        return lo;
      }
      case SlotHeuristic::kRandom:
        break;  // not differential-testable (independent rng streams)
    }
    ADD_FAILURE() << "oracle cannot mirror heuristic " << to_string(heuristic_);
    return lo;
  }

  int n_;
  std::vector<int> periods_;
  SlotHeuristic heuristic_;
  Slot now_ = 0;
  std::map<Slot, std::vector<Segment>> slots_;
};

// verify_plan written out on a std::map: one tree node per reception
// slot, and a walk over every slot boundary from arrival + 1 to the last
// reception, O(last - arrival). Same diagnostics as verify_plan.
inline PlanDiagnostics naive_verify_plan(const ClientPlan& plan,
                                         const std::vector<int>& periods) {
  PlanDiagnostics diag;
  const int n = plan.num_segments();
  std::map<Slot, int> receptions;  // slot -> segments received in it
  for (int j = 1; j <= n; ++j) {
    const Slot s = plan.reception_slot[static_cast<size_t>(j - 1)];
    const Slot deadline =
        plan.arrival_slot +
        (periods.empty() ? j : periods[static_cast<size_t>(j - 1)]);
    if (s <= plan.arrival_slot || s > deadline) {
      if (diag.deadlines_met) {
        diag.deadlines_met = false;
        diag.first_violation = j;
      }
    }
    ++receptions[s];
  }
  for (const auto& [slot, count] : receptions) {
    diag.max_concurrent_streams = std::max(diag.max_concurrent_streams, count);
  }
  if (n > 0) {
    const Slot last = *std::max_element(plan.reception_slot.begin(),
                                        plan.reception_slot.end());
    int received = 0;
    auto it = receptions.begin();
    for (Slot t = plan.arrival_slot + 1; t <= last; ++t) {
      while (it != receptions.end() && it->first <= t) {
        received += it->second;
        ++it;
      }
      const int consumed =
          static_cast<int>(std::min<Slot>(t - plan.arrival_slot, n));
      diag.max_buffered_segments =
          std::max(diag.max_buffered_segments, received - consumed);
    }
  }
  return diag;
}

}  // namespace vod
