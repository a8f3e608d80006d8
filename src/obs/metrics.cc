#include "obs/metrics.h"

#include "util/check.h"

namespace vod::obs {

Counter* MetricShard::counter(const std::string& name) {
  VOD_DCHECK_SERIAL(writer_);
  return &counters_[name];
}

Gauge* MetricShard::gauge(const std::string& name) {
  VOD_DCHECK_SERIAL(writer_);
  return &gauges_[name];
}

HistogramMetric* MetricShard::histogram(const std::string& name, double lo,
                                        double hi, size_t bins) {
  VOD_DCHECK_SERIAL(writer_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, HistogramMetric(lo, hi, bins)).first;
  } else {
    const Histogram& h = it->second.histogram();
    VOD_CHECK_MSG(h.lo() == lo && h.hi() == hi && h.bins().size() == bins,
                  "histogram re-registered with a different bucket spec");
  }
  return &it->second;
}

const Counter* MetricShard::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricShard::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const HistogramMetric* MetricShard::find_histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

uint64_t MetricShard::counter_value(const std::string& name) const {
  const Counter* c = find_counter(name);
  return c ? c->value() : 0;
}

void MetricShard::merge_from(const MetricShard& other) {
  VOD_DCHECK_SERIAL(writer_);  // mutates this shard; `other` is only read
  for (const auto& [name, c] : other.counters_) {
    counters_[name].inc(c.value());
  }
  for (const auto& [name, g] : other.gauges_) {
    gauges_[name].add(g.value());
  }
  for (const auto& [name, h] : other.histograms_) {
    const Histogram& spec = h.histogram();
    histogram(name, spec.lo(), spec.hi(), spec.bins().size())->merge(h);
  }
}

}  // namespace vod::obs
