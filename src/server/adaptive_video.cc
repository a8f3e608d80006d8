#include "server/adaptive_video.h"

#include <algorithm>
#include <limits>
#include <span>

#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "protocols/static_mapping.h"
#include "util/check.h"

namespace vod {
namespace {

// "Transmit forever" sentinel for an active static stream's off slot.
constexpr Slot kNeverOff = std::numeric_limits<Slot>::max();

DhbConfig dynamic_config(const AdaptiveVideoConfig& config,
                         SlotHeuristic heuristic) {
  DhbConfig dhb;
  dhb.num_segments = config.num_segments;
  dhb.heuristic = heuristic;
  dhb.use_placement_index = config.fast_admission;
  dhb.coalesce_same_slot = config.fast_admission;
  return dhb;
}

}  // namespace

std::string to_string(ServingMode mode) {
  switch (mode) {
    case ServingMode::kReactive:
      return "reactive";
    case ServingMode::kDhb:
      return "dhb";
    case ServingMode::kStatic:
      return "static";
  }
  return "unknown";
}

ControllerConfig default_adaptive_controller() {
  ControllerConfig config;
  // Thresholds in arrivals/slot; see the header comment for the measured
  // provisioned-bandwidth crossovers behind them.
  config.bands = {
      {/*up=*/0.05, /*down=*/0.02},  // reactive <-> dhb
      {/*up=*/0.50, /*down=*/0.20},  // dhb <-> static
  };
  config.min_dwell_slots = 64;  // ~78 min at the paper's 72.7 s slot
  config.initial_mode = static_cast<int>(ServingMode::kDhb);
  return config;
}

AdaptiveVideo::AdaptiveVideo(const AdaptiveVideoConfig& config,
                             const NpbMapping* static_mapping,
                             AdaptiveProbe* probe)
    : config_(config),
      mapping_(static_mapping),
      probe_(probe),
      estimator_(config.ewma),
      controller_(config.controller),
      mode_(static_cast<ServingMode>(controller_.mode())),
      pending_mode_(mode_),
      scheduler_(dynamic_config(config, heuristic_for(mode_))) {
  VOD_CHECK_MSG(config_.num_segments >= 1, "need at least one segment");
  VOD_CHECK_MSG(mapping_ != nullptr, "adaptive video needs an NPB mapping");
  VOD_CHECK_MSG(mapping_->num_segments() == config_.num_segments,
                "static mapping segment count mismatch");
  // NPB's stride(s) <= s puts S_1 in every slot: the static rung's startup
  // wait is one slot, and a broadcast never misses a deadline.
  VOD_CHECK_MSG(mapping_->period_of(1) == 1,
                "the static mapping must transmit S_1 every slot");
  VOD_CHECK_MSG(controller_.num_modes() == 3,
                "the adaptive ladder has exactly three rungs "
                "(reactive / dhb / static)");

  // Per-stream drain horizons: the largest transmission period packed on a
  // stream bounds how long any client could still be waiting for it. Every
  // segment's period divides into the first num_segments slots (period <=
  // segment index <= n), so scanning one n-slot window sees every segment
  // the stream carries.
  const int streams = mapping_->streams();
  stream_max_period_.assign(static_cast<size_t>(streams), 0);
  for (int r = 0; r < streams; ++r) {
    Slot max_period = 0;
    for (Slot s = 1; s <= static_cast<Slot>(config_.num_segments); ++s) {
      const Segment seg = mapping_->segment_at(r, s);
      if (seg != 0) max_period = std::max(max_period, mapping_->period_of(seg));
    }
    stream_max_period_[static_cast<size_t>(r)] = max_period;
  }
  static_off_slot_.assign(static_cast<size_t>(streams), 0);
  static_periods_.resize(static_cast<size_t>(config_.num_segments));
  for (int j = 1; j <= config_.num_segments; ++j) {
    static_periods_[static_cast<size_t>(j - 1)] =
        static_cast<int>(mapping_->period_of(j));
  }

  // A video whose initial rung is already kStatic (a pinned ladder, or an
  // operator starting a known-hot video proactive) broadcasts from slot 1.
  if (mode_ == ServingMode::kStatic) {
    static_on_ = true;
    std::fill(static_off_slot_.begin(), static_off_slot_.end(), kNeverOff);
  }
}

SlotHeuristic AdaptiveVideo::heuristic_for(ServingMode mode) {
  // kReactive is the lazy rule: place at the deadline, exactly what a
  // slotted patching/tapping server does; kDhb is the paper's heuristic.
  return mode == ServingMode::kReactive ? SlotHeuristic::kLatest
                                        : SlotHeuristic::kMinLoadLatest;
}

bool AdaptiveVideo::migrating() const {
  const bool dynamic_draining =
      !mode_dynamic(mode_) && scheduler_.schedule().total_scheduled() > 0;
  const bool static_draining = !static_on_ && mode_dynamic(mode_) &&
                               std::any_of(static_off_slot_.begin(),
                                           static_off_slot_.end(),
                                           [this](Slot off) {
                                             return off > now_;
                                           });
  return dynamic_draining || static_draining;
}

void AdaptiveVideo::commit_transition(ServingMode to) {
  const ServingMode from = mode_;
  if (mode_dynamic(from) && mode_dynamic(to)) {
    // reactive <-> dhb: same schedule, new placement rule for future
    // instances only. Nothing drains; committed plans are untouched.
    scheduler_.set_heuristic(heuristic_for(to));
  } else if (to == ServingMode::kStatic) {
    // dynamic -> static: broadcast on from this slot; the dynamic schedule
    // stops admitting and plays out its committed instances.
    static_on_ = true;
    std::fill(static_off_slot_.begin(), static_off_slot_.end(), kNeverOff);
  } else {
    // static -> dynamic: admissions move to the dynamic scheduler; each
    // broadcast stream stays on through the last slot any already-admitted
    // static client could still need it, then shuts off.
    static_on_ = false;
    for (size_t r = 0; r < static_off_slot_.size(); ++r) {
      static_off_slot_[r] =
          has_static_clients_ ? last_static_arrival_ + stream_max_period_[r]
                              : now_ - 1;
    }
    // A schedule still draining from the dynamic->static switch keeps
    // playing out — its committed plans are valid under any rule.
    scheduler_.set_heuristic(heuristic_for(to));
  }
  mode_ = to;
  ++switches_;
  VOD_TRACE_INSTANT("adaptive/switch", "adaptive", now_,
                    {"from", static_cast<int>(from)},
                    {"to", static_cast<int>(to)});
  if (obs::FlightRecorder* flight = obs::current_flight()) {
    obs::ControllerDecision rec;
    rec.slot = now_;
    rec.video = config_.video_id;
    rec.estimate = estimator_.estimate();
    rec.band = std::min(static_cast<int32_t>(from), static_cast<int32_t>(to));
    rec.dwell = controller_.dwell();
    rec.rung_before = static_cast<int32_t>(from);
    rec.rung_after = static_cast<int32_t>(to);
    rec.overlap_slots = static_cast<int64_t>(overlap_slots_);
    // A commit the controller did not ask for came from force_mode().
    rec.forced = static_cast<int>(to) != controller_.mode();
    rec.committed = true;
    flight->record(rec);
  }
  if (probe_ != nullptr) probe_->on_transition(now_, from, to);
}

int AdaptiveVideo::advance_slot() {
  VOD_DCHECK_SERIAL(serial_);
  ++now_;
  if (pending_mode_ != mode_) commit_transition(pending_mode_);

  // Dynamic side: stepped in every mode, so its clock stays now_.
  const bool want_list = probe_ != nullptr;
  const std::span<const Segment> sent = scheduler_.advance_slot_view();
  int streams = static_cast<int>(sent.size());
  if (want_list) transmitted_scratch_.assign(sent.begin(), sent.end());

  // Static side: active streams are reserved channels whether or not this
  // slot of the mapping carries a segment.
  int static_streams = 0;
  for (size_t r = 0; r < static_off_slot_.size(); ++r) {
    const bool active = static_on_ || static_off_slot_[r] >= now_;
    if (!active) continue;
    ++static_streams;
    if (want_list) {
      const Segment seg = mapping_->segment_at(static_cast<int>(r), now_);
      if (seg != 0) transmitted_scratch_.push_back(seg);
    }
  }
  if (streams > 0 && static_streams > 0) ++overlap_slots_;
  streams += static_streams;
  ++mode_slots_[static_cast<size_t>(mode_)];
  if (probe_ != nullptr) probe_->on_slot(now_, transmitted_scratch_);
  return streams;
}

void AdaptiveVideo::on_slot_arrivals(uint64_t count) {
  VOD_DCHECK_SERIAL(serial_);
  VOD_CHECK_MSG(now_ >= 1, "advance_slot() must run before arrivals");
  estimator_.on_slot(count);

  if (count > 0) {
    if (mode_dynamic(mode_)) {
      // Only a probe reads the plan; without one, nothing is copied out.
      if (probe_ == nullptr) {
        scheduler_.on_request_batch_discard(count);
      } else {
        probe_->on_admission(scheduler_.on_request_batch(count).plan,
                             scheduler_.periods(), count, mode_);
      }
    } else {
      last_static_arrival_ = now_;
      has_static_clients_ = true;
      if (probe_ != nullptr) {
        // first_occurrences is 1-based with a dummy entry 0; plans use the
        // scheduler convention (entry k = segment k+1).
        const std::vector<Slot> occ = first_occurrences(*mapping_, now_);
        ClientPlan plan;
        plan.arrival_slot = now_;
        plan.reception_slot.assign(occ.begin() + 1, occ.end());
        probe_->on_admission(plan, static_periods_, count, mode_);
      }
    }
  }

  // The controller's decision commits at the next slot boundary, so a
  // client arriving in the very slot a switch commits is admitted by the
  // *new* mode (the old one only drains from that boundary on).
  const ControllerDecisionDetail decision =
      controller_.on_slot_detailed(estimator_.estimate());
  pending_mode_ = static_cast<ServingMode>(decision.mode);
  if (decision.moved || decision.dwell_blocked) {
    if (obs::FlightRecorder* flight = obs::current_flight()) {
      obs::ControllerDecision rec;
      rec.slot = now_;
      rec.video = config_.video_id;
      rec.estimate = estimator_.estimate();
      rec.band = decision.band;
      rec.dwell = decision.dwell;
      rec.rung_before = decision.previous;
      rec.rung_after = decision.mode;
      rec.overlap_slots = static_cast<int64_t>(overlap_slots_);
      rec.dwell_blocked = decision.dwell_blocked;
      flight->record(rec);
    }
  }
}

void AdaptiveVideo::force_mode(ServingMode mode) {
  VOD_DCHECK_SERIAL(serial_);
  pending_mode_ = mode;
}

void AdaptiveVideo::export_metrics(obs::MetricShard* out) const {
  out->counter("adaptive_switches_total")->inc(switches_);
  out->counter("adaptive_slots_mode_reactive_total")->inc(mode_slots_[0]);
  out->counter("adaptive_slots_mode_dhb_total")->inc(mode_slots_[1]);
  out->counter("adaptive_slots_mode_static_total")->inc(mode_slots_[2]);
  out->counter("adaptive_migration_overlap_slots_total")
      ->inc(overlap_slots_);
  scheduler_.export_metrics(out);
}

}  // namespace vod
