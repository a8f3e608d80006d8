#include "schedule/client_plan.h"

#include <algorithm>

#include "util/check.h"

namespace vod {

PlanDiagnostics verify_plan(const ClientPlan& plan,
                            const std::vector<int>& periods) {
  PlanDiagnostics diag;
  const int n = plan.num_segments();
  if (!periods.empty()) {
    VOD_CHECK(static_cast<int>(periods.size()) == n);
  }
  if (n == 0) return diag;

  // Deadlines, the plan's slot span, and its largest period.
  const Slot arrival = plan.arrival_slot;
  Slot first = plan.reception_slot.front();
  Slot last = first;
  int max_period = 0;
  for (int j = 1; j <= n; ++j) {
    const Slot s = plan.reception_slot[static_cast<size_t>(j - 1)];
    const int period =
        periods.empty() ? j : periods[static_cast<size_t>(j - 1)];
    if ((s <= arrival || s > arrival + period) && diag.deadlines_met) {
      diag.deadlines_met = false;
      diag.first_violation = j;
    }
    first = std::min(first, s);
    last = std::max(last, s);
    max_period = std::max(max_period, period);
  }

  // Buffering: at the end of slot t, for t = arrival + 1 .. last, the
  // client holds every segment received in a slot <= t, less the
  // min(t - arrival, n) it has consumed. Between two reception slots
  // nothing arrives and consumption never falls, so the level peaks at
  // arrival + 1 or at a later reception slot. visit() takes the reception
  // slots in ascending order with the number received in each.
  int received = 0;
  const auto visit = [&](Slot s, int count) {
    diag.max_concurrent_streams = std::max(diag.max_concurrent_streams, count);
    received += count;
    if (last <= arrival) return;  // no boundary after the arrival
    // A slot up to arrival + 1 is read at arrival + 1; the last such slot
    // reads the full count there, an earlier one a smaller level.
    const Slot t = std::max(s, arrival + 1);
    const int consumed = static_cast<int>(std::min<Slot>(t - arrival, n));
    diag.max_buffered_segments =
        std::max(diag.max_buffered_segments, received - consumed);
  };

  // A scheduler plan receives in (arrival, arrival + max T[j]], so a flat
  // count per slot of its span costs O(n + max T[j]). A plan spread wider
  // than n + max T[j] slots is hand-made or corrupt: sort a copy instead,
  // O(n log n) whatever the span.
  const uint64_t width =
      static_cast<uint64_t>(last) - static_cast<uint64_t>(first);
  if (width < static_cast<uint64_t>(n) + static_cast<uint64_t>(max_period)) {
    std::vector<int> count(static_cast<size_t>(width) + 1, 0);
    for (const Slot s : plan.reception_slot) {
      ++count[static_cast<size_t>(s - first)];
    }
    for (size_t i = 0; i < count.size(); ++i) {
      if (count[i] > 0) visit(first + static_cast<Slot>(i), count[i]);
    }
  } else {
    std::vector<Slot> sorted = plan.reception_slot;
    std::sort(sorted.begin(), sorted.end());
    for (auto it = sorted.begin(); it != sorted.end();) {
      const auto run = std::upper_bound(it, sorted.end(), *it);
      visit(*it, static_cast<int>(run - it));
      it = run;
    }
  }
  return diag;
}

}  // namespace vod
