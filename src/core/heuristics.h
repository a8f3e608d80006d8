// Slot-choice heuristics for dynamic broadcasting.
//
// When DHB must schedule a new instance of segment S_j for a request that
// arrived during slot i, it picks one slot inside the window (i, i+T[j]].
// The paper's heuristic (Figure 6) takes the slot with the minimum number
// of already-scheduled instances, breaking ties toward the latest slot.
// The alternatives exist to reproduce §3's design argument as an ablation:
// "always latest" recreates the factorial-alignment bandwidth spikes the
// heuristic was designed to suppress, "earliest" destroys sharing with
// future requests, and "random" is the straw-man load balancer.
#pragma once

#include <cstdint>
#include <string>

#include "schedule/slot_schedule.h"
#include "schedule/types.h"
#include "sim/random.h"

namespace vod {

enum class SlotHeuristic {
  kMinLoadLatest,    // the paper's rule (Figure 6)
  kMinLoadEarliest,  // min load, ties toward the earliest slot
  kLatest,           // naive "delay as long as possible" (no load term)
  kEarliest,         // schedule immediately in the first slot
  kRandom,           // uniform over the window
};

std::string to_string(SlotHeuristic h);

// Picks a slot in [lo, hi] according to the heuristic. `rng` is only
// consulted by kRandom and may be null for the deterministic rules.
//
// The min-load rules answer through the schedule's O(log window) range-min
// placement index by default (the schedule must keep one); `use_index =
// false` forces the literal O(W) Figure 6 scan instead. Both return the
// same slot for every input — the naive scan is kept as the differential
// oracle and serves schedules without an index.
Slot choose_slot(SlotHeuristic h, const SlotSchedule& schedule, Slot lo,
                 Slot hi, Rng* rng, bool use_index = true);

}  // namespace vod
