// Client-side reception plans and the playout verifier.
//
// When a request is admitted, the scheduler commits it to one transmission
// slot per segment. Because DHB never moves or cancels a scheduled
// instance, the plan fixed at arrival remains valid forever; the verifier
// checks the end-to-end correctness properties the protocol promises:
//
//   * deadline:   segment j is received in (arrival, arrival + j]
//                 (with per-segment periods T[], in (arrival, arrival+T[j]]);
//   * concurrency: how many streams the STB must receive at once;
//   * buffering:   how many segments the STB must hold.
#pragma once

#include <cstdint>
#include <vector>

#include "schedule/types.h"

namespace vod {

struct ClientPlan {
  Slot arrival_slot = 0;
  // reception_slot[j-1] = the slot in which segment j is received.
  std::vector<Slot> reception_slot;

  int num_segments() const { return static_cast<int>(reception_slot.size()); }
};

struct PlanDiagnostics {
  bool deadlines_met = true;
  // First violating segment (1-based) when !deadlines_met, else 0.
  Segment first_violation = 0;
  // Maximum number of segments received during any one slot.
  int max_concurrent_streams = 0;
  // Maximum number of whole segments buffered at any slot boundary
  // (received but not yet consumed). A measure of required STB storage,
  // in units of one segment (= d seconds of video).
  int max_buffered_segments = 0;
};

// Verifies a plan. `periods` is the per-segment maximum delay vector
// (empty => T[j] = j, the CBR base protocol). Consumption model:
// segment j is consumed during slot arrival + j (stream-through), so at the
// end of slot arrival + j the client has consumed j segments. Costs
// O(n + max T[j]) on a plan spanning fewer than n + max T[j] slots (every
// scheduler plan), O(n log n) on any wider one.
PlanDiagnostics verify_plan(const ClientPlan& plan,
                            const std::vector<int>& periods = {});

}  // namespace vod
