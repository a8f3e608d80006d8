#include "obs/qoe.h"

#include <algorithm>

#include "obs/flight_recorder.h"
#include "util/check.h"

namespace vod::obs {

ExemplarHistogram::ExemplarHistogram(double lo, double hi, size_t bins)
    : hist_(lo, hi, bins), exemplars_(bins) {}

size_t ExemplarHistogram::bucket_of(double x) const {
  const double idx = (x - hist_.lo()) / hist_.bin_width();
  if (idx >= static_cast<double>(exemplars_.size())) {
    return exemplars_.size() - 1;
  }
  if (idx > 0.0) return static_cast<size_t>(idx);
  return 0;
}

namespace {

// The merge-order-independent "worse exemplar" rule: largest value wins,
// ties break to the smallest (slot, request_id).
bool exemplar_worse(const QoeExemplar& a, const QoeExemplar& b) {
  if (a.value != b.value) return a.value > b.value;
  if (a.slot != b.slot) return a.slot < b.slot;
  return a.request_id < b.request_id;
}

}  // namespace

void ExemplarHistogram::observe_n(double x, uint64_t n, uint64_t request_id,
                                  int64_t slot) {
  if (n == 0) return;
  const size_t b = bucket_of(x);
  const bool first = hist_.bins()[b] == 0;
  hist_.add_n(x, n);
  sum_ += x * static_cast<double>(n);
  const QoeExemplar candidate{request_id, slot, x};
  if (first || exemplar_worse(candidate, exemplars_[b])) {
    exemplars_[b] = candidate;
  }
}

void ExemplarHistogram::merge(const ExemplarHistogram& other) {
  VOD_CHECK_MSG(exemplars_.size() == other.exemplars_.size() &&
                    hist_.lo() == other.hist_.lo() &&
                    hist_.hi() == other.hist_.hi(),
                "merging exemplar histograms with different specs");
  for (size_t i = 0; i < exemplars_.size(); ++i) {
    if (other.hist_.bins()[i] == 0) continue;
    if (hist_.bins()[i] == 0 ||
        exemplar_worse(other.exemplars_[i], exemplars_[i])) {
      exemplars_[i] = other.exemplars_[i];
    }
  }
  hist_.merge(other.hist_);
  sum_ += other.sum_;
}

QoeGroup::QoeGroup(const QoeOptions& options)
    : wait(0.0, options.wait_hi_slots, options.wait_bins),
      wait_slo(options.wait_slo),
      continuity_slo(options.continuity_slo) {}

QoeShard::QoeShard(const QoeOptions& options) : options_(options) {
  VOD_CHECK_MSG(options_.wait_bins >= 1 && options_.wait_hi_slots > 0.0,
                "wait histogram needs a positive domain");
  ring_.resize(options_.sample_ring_capacity);
  internal::register_qoe_shard(this);
}

QoeShard::~QoeShard() { internal::unregister_qoe_shard(this); }

void QoeShard::set_context(uint32_t video, int32_t rung) {
  VOD_DCHECK_SERIAL(writer_);
  if (context_group_ != nullptr && video_ == video && rung_ == rung) return;
  video_ = video;
  rung_ = rung;
  context_group_ = &group(video, rung);
}

QoeGroup& QoeShard::group(uint32_t video, int32_t rung) {
  const QoeKey key{video, rung};
  auto it = groups_.find(key);
  if (it == groups_.end()) {
    it = groups_.emplace(key, QoeGroup(options_)).first;
  }
  return it->second;
}

void QoeShard::record_admission(uint64_t count, int64_t slot,
                                double wait_slots,
                                uint64_t late_segments_per_request,
                                uint64_t segments_per_request) {
  VOD_DCHECK_SERIAL(writer_);
  if (count == 0) return;
  VOD_DCHECK(late_segments_per_request <= segments_per_request);
  QoeGroup& g = context_group_ != nullptr ? *context_group_
                                          : group(video_, rung_);
  context_group_ = &g;
  const uint64_t request_id =
      (static_cast<uint64_t>(video_) << 32) |
      (g.next_request_seq & 0xffffffffull);
  g.next_request_seq += count;
  g.wait.observe_n(wait_slots, count, request_id, slot);
  g.admissions += 1;
  g.requests += count;
  g.segments += count * segments_per_request;
  g.late_segments += count * late_segments_per_request;
  const uint64_t wait_bad =
      wait_slots > options_.wait_objective_slots ? count : 0;
  g.wait_slo.record(slot, count, wait_bad);
  g.continuity_slo.record(slot, count * segments_per_request,
                          count * late_segments_per_request);
  total_requests_ += count;
  if (!ring_.empty()) {
    ring_[ring_next_] = QoeSample{request_id,
                                  slot,
                                  video_,
                                  rung_,
                                  wait_slots,
                                  count,
                                  late_segments_per_request,
                                  segments_per_request};
    ring_next_ = (ring_next_ + 1) % ring_.size();
    ++ring_recorded_;
  }
}

std::vector<QoeSample> QoeShard::recent_samples() const {
  std::vector<QoeSample> out;
  if (ring_.empty() || ring_recorded_ == 0) return out;
  const size_t retained =
      static_cast<size_t>(std::min<uint64_t>(ring_recorded_, ring_.size()));
  out.reserve(retained);
  const size_t start = (ring_next_ + ring_.size() - retained) % ring_.size();
  for (size_t i = 0; i < retained; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

void QoeShard::merge_from(const QoeShard& other) {
  VOD_DCHECK_SERIAL(writer_);
  for (const auto& [key, theirs] : other.groups_) {
    auto it = groups_.find(key);
    if (it == groups_.end()) {
      it = groups_.emplace(key, QoeGroup(options_)).first;
    }
    QoeGroup& ours = it->second;
    ours.wait.merge(theirs.wait);
    ours.admissions += theirs.admissions;
    ours.requests += theirs.requests;
    ours.segments += theirs.segments;
    ours.late_segments += theirs.late_segments;
    ours.wait_slo.merge_from(theirs.wait_slo);
    ours.continuity_slo.merge_from(theirs.continuity_slo);
    ours.next_request_seq += theirs.next_request_seq;
  }
  total_requests_ += other.total_requests_;
  context_group_ = nullptr;  // map may have rehomed nothing, but re-resolve
}

const char* qoe_rung_name(int32_t rung) {
  switch (rung) {
    case 0:
      return "reactive";
    case 1:
      return "dhb";
    case 2:
      return "static";
    default:
      return nullptr;
  }
}

std::string qoe_rung_label(int32_t rung) {
  const char* name = qoe_rung_name(rung);
  if (name != nullptr) return name;
  return "rung" + std::to_string(rung);
}

}  // namespace vod::obs
