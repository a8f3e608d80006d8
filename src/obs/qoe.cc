#include "obs/qoe.h"

#include <algorithm>

#include "obs/flight_recorder.h"
#include "util/check.h"

namespace vod::obs {

ExemplarHistogram::ExemplarHistogram(double lo, double hi, size_t bins)
    : hist_(lo, hi, bins), exemplars_(bins) {}

namespace {

// The "worse exemplar" rule: largest value wins, ties break to the
// smallest (slot, request_id).
bool exemplar_worse(const QoeExemplar& a, const QoeExemplar& b) {
  if (a.value != b.value) return a.value > b.value;
  if (a.slot != b.slot) return a.slot < b.slot;
  return a.request_id < b.request_id;
}

}  // namespace

void ExemplarHistogram::observe_n(double x, uint64_t n, uint64_t request_id,
                                  int64_t slot) {
  if (n == 0) return;
  const size_t b = hist_.add_n(x, n);
  const bool first = hist_.bins()[b] == n;
  sum_ += x * static_cast<double>(n);
  const QoeExemplar candidate{request_id, slot, x};
  if (first || exemplar_worse(candidate, exemplars_[b])) {
    exemplars_[b] = candidate;
  }
}

QoeShard::QoeShard(size_t sample_capacity) {
  VOD_CHECK_MSG(sample_capacity >= 1, "a QoE shard needs capacity >= 1");
  ring_.resize(sample_capacity);
  internal::register_qoe_shard(this);
}

QoeShard::~QoeShard() { internal::unregister_qoe_shard(this); }

void QoeShard::record_admission(uint64_t count, int64_t slot,
                                double wait_slots,
                                uint64_t late_segments_per_request,
                                uint64_t segments_per_request) {
  VOD_DCHECK_SERIAL(writer_);
  if (count == 0) return;
  VOD_DCHECK(late_segments_per_request <= segments_per_request);
  if (!group_) group_.emplace();
  QoeGroup& g = *group_;
  const uint64_t request_id = g.requests;
  g.wait.observe_n(wait_slots, count, request_id, slot);
  g.admissions += 1;
  g.requests += count;
  g.segments += count * segments_per_request;
  g.late_segments += count * late_segments_per_request;
  const uint64_t wait_bad = wait_slots > kWaitObjectiveSlots ? count : 0;
  g.wait_slo.record(slot, count, wait_bad);
  g.continuity_slo.record(slot, count * segments_per_request,
                          count * late_segments_per_request);
  ring_[ring_next_] = QoeSample{request_id, slot, wait_slots, count,
                                late_segments_per_request,
                                segments_per_request};
  ring_next_ = (ring_next_ + 1) % ring_.size();
  ++ring_recorded_;
}

std::vector<QoeSample> QoeShard::recent_samples() const {
  std::vector<QoeSample> out;
  if (ring_recorded_ == 0) return out;
  const size_t retained =
      static_cast<size_t>(std::min<uint64_t>(ring_recorded_, ring_.size()));
  out.reserve(retained);
  const size_t start = (ring_next_ + ring_.size() - retained) % ring_.size();
  for (size_t i = 0; i < retained; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

}  // namespace vod::obs
