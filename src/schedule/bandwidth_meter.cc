#include "schedule/bandwidth_meter.h"

namespace vod {

BandwidthMeter::BandwidthMeter(uint64_t warmup_slots, uint64_t batch_slots)
    : warmup_left_(warmup_slots), batches_(batch_slots) {}

void BandwidthMeter::add_slot(int streams) {
  if (warmup_left_ > 0) {
    --warmup_left_;
    return;
  }
  const double v = static_cast<double>(streams);
  stats_.add(v);
  batches_.add(v);
  histogram_.add(v);
}

void BandwidthMeter::export_metrics(obs::MetricShard* out) const {
  obs::HistogramMetric* h = out->histogram(
      "bandwidth_streams", 0.0, kHistogramMax,
      static_cast<size_t>(kHistogramMax));
  for (size_t i = 0; i < histogram_.bins().size(); ++i) {
    const uint64_t n = histogram_.bins()[i];
    if (n == 0) continue;
    // Re-observe at the bin's lower edge: bins are width 1, so this is the
    // exact integral stream count the samples carried.
    h->observe_n(histogram_.lo() + histogram_.bin_width() *
                                       static_cast<double>(i),
                 n);
  }
  out->counter("bandwidth_slots_measured_total")->inc(measured_slots());
}

}  // namespace vod
