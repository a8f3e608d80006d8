// Server bandwidth accounting for slotted protocols.
//
// Bandwidth is reported the way the paper plots it: in multiples of the
// video consumption rate b ("data streams"). One scheduled segment instance
// occupies one stream for one slot, so the instantaneous bandwidth during a
// slot is simply the number of instances transmitted in it. The meter trims
// a warmup prefix and produces batch-means confidence intervals.
#pragma once

#include <cstdint>

#include "obs/metrics.h"
#include "sim/batch_means.h"
#include "sim/stats.h"

namespace vod {

class BandwidthMeter {
 public:
  // warmup_slots samples are discarded; batch_slots sizes the CI batches.
  explicit BandwidthMeter(uint64_t warmup_slots = 0,
                          uint64_t batch_slots = 10000);

  void add_slot(int streams);

  uint64_t measured_slots() const { return stats_.count(); }
  // Time-average bandwidth in streams (multiples of b).
  double mean_streams() const { return stats_.mean(); }
  // Maximum per-slot bandwidth in streams over the measured window.
  double max_streams() const { return stats_.max(); }
  // 95% batch-means confidence interval on the mean.
  ConfidenceInterval mean_ci95() const { return batches_.interval95(); }

  // Per-slot stream distribution over the measured (post-warmup) window,
  // at one-stream resolution up to kHistogramMax (heavier slots clamp into
  // the top bin): bin k holds the slots that carried k streams. The tail
  // quantiles the mean/CI summary cannot show — e.g. the p99 provisioning
  // headroom of EXPERIMENTS.md.
  const Histogram& stream_histogram() const { return histogram_; }

  // Snapshots the meter into `out` as the bandwidth_streams histogram plus
  // bandwidth_slots_measured_total (exporter input; call when done).
  void export_metrics(obs::MetricShard* out) const;

  // One bin per stream count keeps Prometheus le-bucket edges integral.
  static constexpr double kHistogramMax = 512.0;

 private:
  uint64_t warmup_left_;  // leading slots still to discard
  RunningStats stats_;
  BatchMeans batches_;
  Histogram histogram_{0.0, kHistogramMax, static_cast<size_t>(kHistogramMax)};
};

}  // namespace vod
