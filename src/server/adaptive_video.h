// Per-video adaptive protocol switching with disruption-free migration.
//
// The paper's §1 motivation is that demand for one video swings by orders
// of magnitude over a day, and its own results (Figures 7/8, reproduced by
// bench/reactive_landscape) show the cheapest delivery discipline depends
// on where in that swing the video sits. On *provisioned* bandwidth — the
// per-slot peak a shared channel pool must reserve, the paper's Figure 8
// metric — the measured landscape for n = 99 is:
//
//   * at a few requests/hour a dynamic schedule needs only 3-5 channels at
//     peak, far below the 6 an always-on NPB broadcast burns;
//   * past ~25 requests/hour DHB's per-slot peak crosses 6 and keeps
//     climbing (~8 at saturation), so the flat static broadcast wins;
//   * the lazy "latest-only" heuristic (slotted patching/tapping
//     semantics) matches DHB at very low rates but its peak explodes with
//     rate (33 channels at 500 req/h) — usable only on the coldest tail.
//
// AdaptiveVideo runs one video through that tradeoff *online*: an EWMA of
// the per-slot arrival batches (sim/rate_estimator.h) feeds a hysteresis
// ladder (core/protocol_controller.h) over three rungs —
//
//   kReactive — DhbScheduler under SlotHeuristic::kLatest
//   kDhb      — DhbScheduler under the paper's min-load-latest rule
//   kStatic   — the always-on NPB mapping for the video's segment count
//
// — and migrates in-flight clients across transitions without a playback
// gap, using the one property every rung shares: committed transmissions
// are never moved or cancelled (DHB's §3 rule; a broadcast's periodicity).
//
//   reactive ⇄ dhb    — the schedule is kept; only the placement rule for
//                       *future* instances changes
//                       (DhbScheduler::set_heuristic). Committed plans are
//                       untouched, so there is nothing to drain.
//   dynamic → static  — the NPB streams turn on at the commit boundary and
//                       serve every client arriving from that slot on; the
//                       dynamic schedule stops admitting and drains — every
//                       committed instance still transmits, so old clients
//                       play out their fixed plans. Bandwidth briefly pays
//                       for both: that overlap is the real migration cost
//                       and is metered.
//   static → dynamic  — the dynamic scheduler admits every client from the
//                       boundary on, while the broadcast drains
//                       *progressively*: stream r keeps transmitting until
//                       slot a_last + max_period(r), where a_last is the
//                       last static admission slot and max_period(r) the
//                       largest transmission period packed on that stream —
//                       the latest slot any static client could still need
//                       it — then shuts off, stream by stream.
//
// The migration invariant — every admitted client receives every segment
// it planned, on time, across any number of transitions — is checked
// end-to-end by analysis/transition_auditor.h through the AdaptiveProbe
// hook below, and fuzzed with random forced switch points.
//
// One DhbScheduler serves both dynamic rungs for the video's whole life.
// It is stepped every slot, idle and static ones included (an empty step
// is O(1)), so its clock is the video's: every plan and trace event it
// produces carries the video's own slots.
//
// Determinism: the class consumes no randomness and no clock; its state
// advances only through advance_slot()/on_slot_arrivals(). The sharded
// engine therefore keeps its bit-identity-at-any-thread-count guarantee
// with adaptive videos in the catalog (each video lives entirely inside
// one shard kernel).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/dhb.h"
#include "core/protocol_controller.h"
#include "obs/metrics.h"
#include "protocols/npb.h"
#include "schedule/client_plan.h"
#include "schedule/types.h"
#include "sim/rate_estimator.h"
#include "util/thread_checker.h"

namespace vod {

enum class ServingMode { kReactive = 0, kDhb = 1, kStatic = 2 };

std::string to_string(ServingMode mode);

// The measured default ladder for the paper's video (n = 99, 72.7 s
// slots), provisioned-bandwidth crossovers from bench/reactive_landscape
// and the header probe above:
//   reactive/dhb boundary at ~2.5 req/h (0.05 arrivals/slot): below it the
//     two schedules are indistinguishable and laziness costs nothing; the
//     down threshold 0.02 keeps a video from flapping at the boundary.
//   dhb/static boundary at ~25 req/h (0.5 arrivals/slot): where DHB's
//     per-slot peak first clears NPB's flat 6 streams; down threshold 0.2
//     (~10 req/h) sits where the dynamic peak is reliably back under 6.
ControllerConfig default_adaptive_controller();

struct AdaptiveVideoConfig {
  int num_segments = 99;
  // Run the per-mode DhbSchedulers on the admission fast path (placement
  // index + same-slot coalescing); bit-identical either way.
  bool fast_admission = true;
  // Identity stamped on flight-recorder decisions (the engine sets the
  // catalog rank). Observability-only: no effect on serving.
  uint32_t video_id = 0;
  EwmaConfig ewma;
  ControllerConfig controller = default_adaptive_controller();
};

// Observation hook for auditors and tests. Every slot/plan value is in the
// video's own slots (AdaptiveVideo::now()). Implemented by
// analysis/transition_auditor.h; the engine runs with no probe attached.
class AdaptiveProbe {
 public:
  virtual ~AdaptiveProbe() = default;

  // A mode change committed at the boundary into `slot` — the first slot
  // served under `to`.
  virtual void on_transition(Slot slot, ServingMode from, ServingMode to) = 0;

  // `count` clients admitted during `slot` under `mode`, all with this
  // reception plan. `periods` is the per-entry maximum-delay vector the
  // admission ran under (pass to verify_plan).
  virtual void on_admission(const ClientPlan& plan,
                            const std::vector<int>& periods, uint64_t count,
                            ServingMode mode) = 0;

  // The merged transmission list (dynamic schedule + active static
  // streams) for `slot`; idle static slots contribute nothing here even
  // though the channel is reserved.
  virtual void on_slot(Slot slot, const std::vector<Segment>& transmitted) = 0;
};

class AdaptiveVideo {
 public:
  // `static_mapping` is the video's NPB packing (segment counts must
  // match); it must outlive this object. The engine shares one mapping per
  // distinct segment count across the whole catalog — the mapping is
  // immutable and read-only here. `probe` may be null.
  AdaptiveVideo(const AdaptiveVideoConfig& config,
                const NpbMapping* static_mapping,
                AdaptiveProbe* probe = nullptr);

  // Advances the video's clock one slot, committing any pending mode
  // switch at the boundary first, and returns the number of channels busy
  // during the new slot: dynamic transmissions plus *reserved* static
  // streams (an active broadcast stream counts even in its idle slots —
  // the channel is provisioned whether or not this slot carries a
  // segment). Mirrors the engine's always-on accounting for kStatic.
  int advance_slot();

  // Feeds the slot's arrival batch: updates the rate estimate (count == 0
  // is an observation, not a no-op), admits the batch under the current
  // mode, and asks the controller for the mode to serve from the next
  // slot. Call exactly once per slot, after advance_slot().
  void on_slot_arrivals(uint64_t count);

  // Requests a mode for the next boundary, bypassing the controller (the
  // fuzzer's switch-injection hook; migration is still gap-free). The
  // controller keeps running and may override it on a later slot.
  void force_mode(ServingMode mode);

  ServingMode mode() const { return mode_; }
  Slot now() const { return now_; }
  uint64_t switches() const { return switches_; }
  const EwmaRateEstimator& estimator() const { return estimator_; }
  const ProtocolController& controller() const { return controller_; }
  // The dynamic rungs' scheduler; its current_slot() is now().
  const DhbScheduler& scheduler() const { return scheduler_; }
  // True while a retired mode is still transmitting (dynamic schedule
  // draining after dynamic->static, or static streams draining after
  // static->dynamic).
  bool migrating() const;

  // Adds the adaptive counters (adaptive_switches_total,
  // adaptive_slots_mode_*_total, adaptive_migration_overlap_slots_total)
  // plus the scheduler's dhb_*/schedule_* counters into `out`.
  void export_metrics(obs::MetricShard* out) const;

 private:
  static SlotHeuristic heuristic_for(ServingMode mode);
  bool mode_dynamic(ServingMode m) const { return m != ServingMode::kStatic; }
  void commit_transition(ServingMode to);

  // Single-writer discipline: one thread mutates a video at a time (the
  // sharded engine runs each video inside exactly one shard kernel).
  ThreadChecker serial_;

  AdaptiveVideoConfig config_;
  const NpbMapping* mapping_;
  AdaptiveProbe* probe_;

  EwmaRateEstimator estimator_;
  ProtocolController controller_;

  Slot now_ = 0;
  ServingMode mode_;
  ServingMode pending_mode_;
  uint64_t switches_ = 0;

  // Dynamic side: admits under the reactive and DHB rungs, drains under
  // the static one.
  DhbScheduler scheduler_;

  // Static side. The broadcast phase is global — mapping slot == global
  // slot — so reactivation after an incomplete drain needs no phase
  // bookkeeping and first_occurrences() works directly in global slots.
  bool static_on_ = false;
  std::vector<Slot> static_off_slot_;     // per stream: transmit through
                                          // this slot while draining
  std::vector<Slot> stream_max_period_;   // per stream: largest packed period
  std::vector<int> static_periods_;       // per segment: period_of(j)
  Slot last_static_arrival_ = 0;
  bool has_static_clients_ = false;

  // Scratch for the merged per-slot transmission list (probe mode only).
  std::vector<Segment> transmitted_scratch_;

  // Lifetime counters besides switches_; export_metrics() names them.
  std::array<uint64_t, 3> mode_slots_{};  // slots served, by ServingMode
  uint64_t overlap_slots_ = 0;            // slots both sides transmitted
};

}  // namespace vod
