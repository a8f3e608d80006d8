// Online arrival-rate estimation over slot boundaries.
//
// The adaptive protocol-switching controller (server/adaptive_video.h)
// needs a per-video estimate of the current request rate, in arrivals per
// slot, updated once per slot from the engine's batched Poisson drains. An
// exponentially weighted moving average is the standard tool: cheap (O(1)
// state), smooth enough to ride out Poisson noise, and responsive enough to
// follow a diurnal demand curve whose timescale (hours) is much longer than
// a slot (~73 s).
//
// Parameterization is by half life, not by the raw smoothing factor: the
// operator says "observations older than H slots count for less than half"
// and the estimator derives alpha = 1 - 2^(-1/H). That keeps configs
// meaningful when the slot duration changes.
//
// The degenerate-config contract: with zero observed slots the estimate is
// exactly 0.0 — never NaN, never a division by zero — and the first slot
// seeds it. A stream with rate 0 (a dead video) therefore reports estimate
// 0.0 forever, which the controller maps to the lowest rung of its ladder.
// The estimator has no warm-up gate: what holds the controller's initial
// mode is its minimum dwell (ControllerConfig::min_dwell_slots).
#pragma once

#include <cstdint>

namespace vod {

struct EwmaConfig {
  // Observations H slots old carry half the weight of the current one.
  // Must be > 0. The adaptive-engine default (64 slots ~ 78 min at the
  // paper's 72.7 s slot) follows a diurnal curve with ~5% lag while
  // smoothing Poisson noise to a few percent at moderate rates.
  double half_life_slots = 64.0;
};

class EwmaRateEstimator {
 public:
  explicit EwmaRateEstimator(const EwmaConfig& config);

  // Feeds one completed slot's arrival count (the engine's per-slot batch;
  // 0 is a perfectly good observation and decays the estimate).
  void on_slot(uint64_t arrivals);

  // Current estimate in arrivals per slot. Exactly 0.0 before the first
  // on_slot(); never NaN or negative.
  double estimate() const { return estimate_; }

 private:
  EwmaConfig config_;
  double alpha_ = 0.0;     // derived: 1 - 2^(-1/half_life)
  double estimate_ = 0.0;  // arrivals/slot
  bool seeded_ = false;    // a slot has been observed
};

}  // namespace vod
