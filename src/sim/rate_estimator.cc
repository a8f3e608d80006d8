#include "sim/rate_estimator.h"

#include <cmath>

#include "util/check.h"

namespace vod {

EwmaRateEstimator::EwmaRateEstimator(const EwmaConfig& config)
    : config_(config) {
  VOD_CHECK_MSG(config_.half_life_slots > 0.0,
                "EWMA half life must be positive");
  VOD_CHECK_MSG(std::isfinite(config_.half_life_slots),
                "EWMA half life must be finite");
  alpha_ = 1.0 - std::exp2(-1.0 / config_.half_life_slots);
}

void EwmaRateEstimator::on_slot(uint64_t arrivals) {
  const double x = static_cast<double>(arrivals);
  if (!seeded_) {
    // Seed with the first observation rather than decaying toward it from
    // an arbitrary zero: a video that starts hot should not spend half a
    // half-life looking cold.
    estimate_ = x;
  } else {
    estimate_ += alpha_ * (x - estimate_);
  }
  seeded_ = true;
}

}  // namespace vod
