#include "obs/slo.h"

#include <algorithm>

#include "util/check.h"

namespace vod::obs {

SloTracker::SloTracker(double error_budget) : error_budget_(error_budget) {
  VOD_CHECK_MSG(error_budget_ > 0.0 && error_budget_ <= 1.0,
                "error budget must be in (0, 1]");
  fast_.width = kFastWindowSlots;
  slow_.width = kSlowWindowSlots;
}

double SloTracker::bad_fraction() const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(bad_) / static_cast<double>(total_);
}

double SloTracker::burn_of(uint64_t total, uint64_t bad) const {
  if (total == 0) return 0.0;
  return (static_cast<double>(bad) / static_cast<double>(total)) /
         error_budget_;
}

void SloTracker::close(Window& w, bool is_fast) {
  const double burn = burn_of(w.total, w.bad);
  w.stats.windows += 1;
  w.stats.max_burn = std::max(w.stats.max_burn, burn);
  if (burn >= kAlertBurn) {
    w.stats.breached += 1;
    // Multi-window alert: a hot fast window only pages when the slow
    // window agrees the regression is sustained. The slow window's state
    // at this instant (its running burn) is deterministic for a fixed
    // sample stream.
    if (is_fast && burn_of(slow_.total, slow_.bad) >= kAlertBurn) ++alerts_;
  }
  w.total = 0;
  w.bad = 0;
}

void SloTracker::advance(Window& w, int64_t slot, bool is_fast) {
  const int64_t idx = slot / w.width;
  if (!w.started) {
    w.started = true;
    w.index = idx;
    return;
  }
  if (idx == w.index) return;
  close(w, is_fast);
  // Sample-free windows skipped by a forward jump closed with burn 0
  // (never a breach); a restarted clock skipped none.
  if (idx > w.index) {
    w.stats.windows += static_cast<uint64_t>(idx - w.index - 1);
  }
  w.index = idx;
}

void SloTracker::record(int64_t slot, uint64_t total, uint64_t bad) {
  VOD_DCHECK(bad <= total);
  if (total == 0) return;
  // Advance the slow window first so the fast close's alert test sees the
  // slow window's contents *before* this sample — a fixed, documented
  // order, not an accident of call sites.
  advance(slow_, slot, /*is_fast=*/false);
  advance(fast_, slot, /*is_fast=*/true);
  fast_.total += total;
  fast_.bad += bad;
  slow_.total += total;
  slow_.bad += bad;
  total_ += total;
  bad_ += bad;
}

}  // namespace vod::obs
