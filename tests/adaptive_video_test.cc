#include "server/adaptive_video.h"

#include <gtest/gtest.h>

#include <vector>

#include "analysis/schedule_auditor.h"
#include "analysis/transition_auditor.h"
#include "obs/metrics.h"
#include "protocols/npb.h"
#include "schedule/client_plan.h"

namespace vod {
namespace {

const NpbMapping& mapping_for(int n) {
  static std::vector<std::optional<NpbMapping>> cache(128);
  auto& slot = cache.at(static_cast<size_t>(n));
  if (!slot) slot = NpbMapping::build(NpbMapping::streams_for(n), n);
  return *slot;
}

AdaptiveVideoConfig config_for(int n) {
  AdaptiveVideoConfig c;
  c.num_segments = n;
  return c;
}

// Drives one slot under test control: the controller still runs, but the
// forced mode is re-asserted after it decides, so the serving mode is
// exactly the test's script.
int step(AdaptiveVideo* av, uint64_t arrivals, ServingMode forced) {
  const int streams = av->advance_slot();
  av->on_slot_arrivals(arrivals);
  av->force_mode(forced);
  return streams;
}

TEST(AdaptiveVideo, GapFreeAcrossAllTransitionPairs) {
  // The migration invariant, end to end: a phase script covering all six
  // ordered mode pairs, two clients per slot throughout, audited from the
  // outside. Zero violations and every committed reception delivered.
  const int n = 20;
  TransitionAuditor auditor;
  AdaptiveVideo av(config_for(n), &mapping_for(n), &auditor);

  const std::vector<ServingMode> script = {
      ServingMode::kDhb,      ServingMode::kStatic, ServingMode::kReactive,
      ServingMode::kStatic,   ServingMode::kDhb,    ServingMode::kReactive,
      ServingMode::kDhb,
  };
  for (ServingMode phase : script) {
    for (int i = 0; i < 40; ++i) step(&av, 2, phase);
  }
  // Drain: no new clients; every pending reception is due within one
  // period/window (<= n slots).
  for (int i = 0; i < 2 * n + 2; ++i) step(&av, 0, script.back());

  EXPECT_TRUE(auditor.report().ok()) << auditor.report().to_string();
  EXPECT_EQ(auditor.transitions_seen(), 6u);
  EXPECT_EQ(av.switches(), 6u);
  EXPECT_GT(auditor.receptions_checked(), 0u);
  EXPECT_EQ(auditor.pending_receptions(), 0u);
  EXPECT_FALSE(av.migrating());
}

// Probe that records the serving mode of every admission.
class AdmissionRecorder : public AdaptiveProbe {
 public:
  void on_transition(Slot, ServingMode, ServingMode) override {}
  void on_admission(const ClientPlan&, const std::vector<int>&, uint64_t,
                    ServingMode mode) override {
    modes.push_back(mode);
  }
  void on_slot(Slot, const std::vector<Segment>&) override {}

  std::vector<ServingMode> modes;
};

TEST(AdaptiveVideo, ClientArrivingAtSwitchSlotIsAdmittedByTheNewMode) {
  // A switch commits at the boundary INTO a slot, so a client arriving
  // during that very slot belongs to the new mode — the old one only
  // drains from the boundary on.
  const int n = 9;
  AdmissionRecorder recorder;
  AdaptiveVideo av(config_for(n), &mapping_for(n), &recorder);

  step(&av, 1, ServingMode::kStatic);  // admitted under the initial kDhb
  step(&av, 1, ServingMode::kStatic);  // switch committed this boundary
  ASSERT_EQ(recorder.modes.size(), 2u);
  EXPECT_EQ(recorder.modes[0], ServingMode::kDhb);
  EXPECT_EQ(recorder.modes[1], ServingMode::kStatic);
  EXPECT_EQ(av.mode(), ServingMode::kStatic);
}

TEST(AdaptiveVideo, DynamicScheduleDrainsAfterSwitchToStatic) {
  const int n = 9;
  AdaptiveVideo av(config_for(n), &mapping_for(n));
  for (int i = 0; i < 5; ++i) step(&av, 1, ServingMode::kDhb);
  const uint64_t admitted = av.scheduler().total_requests();
  EXPECT_EQ(admitted, 5u);

  step(&av, 0, ServingMode::kStatic);  // pend the switch
  step(&av, 0, ServingMode::kStatic);  // commit: static on, dynamic drains
  EXPECT_EQ(av.mode(), ServingMode::kStatic);
  EXPECT_TRUE(av.migrating());  // committed instances still playing out

  for (int i = 0; i < n + 1; ++i) step(&av, 0, ServingMode::kStatic);
  EXPECT_EQ(av.scheduler().schedule().total_scheduled(), 0);  // drained
  EXPECT_FALSE(av.migrating());

  // The drained scheduler's counters survive into the export.
  obs::MetricShard out;
  av.export_metrics(&out);
  EXPECT_EQ(out.counter_value("dhb_requests_total"), admitted);
  EXPECT_EQ(out.counter_value("adaptive_switches_total"), 1u);
}

TEST(AdaptiveVideo, SchedulerClockIsTheVideoClock) {
  // One scheduler serves the video for life and is stepped on every slot,
  // idle and static ones included, so its clock never lags the video's —
  // across drains, a static spell and both placement rules.
  const int n = 20;
  TransitionAuditor auditor;
  AdaptiveVideo av(config_for(n), &mapping_for(n), &auditor);
  const std::vector<ServingMode> script = {
      ServingMode::kDhb, ServingMode::kStatic, ServingMode::kReactive,
      ServingMode::kDhb};
  for (ServingMode phase : script) {
    for (int i = 0; i < 3 * n; ++i) {
      step(&av, i % 25 == 0 ? 1 : 0, phase);  // sparse: schedules drain
      ASSERT_EQ(av.scheduler().current_slot(), av.now());
    }
  }
  EXPECT_EQ(av.switches(), 3u);
  EXPECT_TRUE(auditor.report().ok()) << auditor.report().to_string();
}

TEST(AdaptiveVideo, StaticStreamsDrainProgressivelyAfterSwitchDown) {
  // Stream r stays on through last_static_arrival + max_period(r) — the
  // last slot an admitted static client could still need it — then shuts
  // off stream by stream, never all at once.
  const int n = 20;
  AdaptiveVideo av(config_for(n), &mapping_for(n));
  step(&av, 0, ServingMode::kStatic);
  step(&av, 1, ServingMode::kStatic);  // static client admitted this slot
  step(&av, 0, ServingMode::kDhb);     // pend the switch down
  const int full = mapping_for(n).streams();

  int prev = full;
  bool saw_partial = false;
  for (int i = 0; i < 2 * n; ++i) {
    const int streams = step(&av, 0, ServingMode::kDhb);
    EXPECT_LE(streams, prev);  // drain is monotone
    if (streams > 0 && streams < full) saw_partial = true;
    prev = streams;
  }
  EXPECT_EQ(prev, 0);          // everything eventually off
  EXPECT_TRUE(saw_partial);    // ...but not in one step
  EXPECT_FALSE(av.migrating());
}

TEST(AdaptiveVideo, NoStaticClientsMeansImmediateShutoff) {
  const int n = 9;
  AdaptiveVideo av(config_for(n), &mapping_for(n));
  step(&av, 0, ServingMode::kStatic);
  const int during = step(&av, 0, ServingMode::kDhb);  // static, no clients
  EXPECT_EQ(during, mapping_for(n).streams());
  // Switch down commits; nobody was admitted, so nothing needs to drain.
  EXPECT_EQ(step(&av, 0, ServingMode::kDhb), 0);
  EXPECT_FALSE(av.migrating());
}

TEST(AdaptiveVideo, SingleSegmentVideoSurvivesEveryTransition) {
  // The degenerate n = 1 video: one segment, period 1, one NPB stream.
  const int n = 1;
  TransitionAuditor auditor;
  AdaptiveVideo av(config_for(n), &mapping_for(n), &auditor);
  const std::vector<ServingMode> script = {
      ServingMode::kStatic, ServingMode::kReactive, ServingMode::kDhb,
      ServingMode::kStatic, ServingMode::kDhb,
  };
  for (ServingMode phase : script) {
    for (int i = 0; i < 5; ++i) step(&av, 1, phase);
  }
  for (int i = 0; i < 4; ++i) step(&av, 0, script.back());
  EXPECT_TRUE(auditor.report().ok()) << auditor.report().to_string();
  EXPECT_EQ(auditor.pending_receptions(), 0u);
}

TEST(AdaptiveVideo, InitialStaticRungBroadcastsFromSlotOne) {
  // A pinned all-static ladder (the bench's frontier baseline) must burn
  // its channels from the very first slot, not wait for a transition.
  AdaptiveVideoConfig c = config_for(9);
  c.controller.initial_mode = static_cast<int>(ServingMode::kStatic);
  c.controller.min_mode = c.controller.max_mode =
      static_cast<int>(ServingMode::kStatic);
  AdaptiveVideo av(c, &mapping_for(9));
  EXPECT_EQ(av.advance_slot(), mapping_for(9).streams());
}

// Probe that checks every admitted plan: playback starts one slot after
// the arrival, and every segment arrives by its deadline.
class StartupProbe : public AdaptiveProbe {
 public:
  void on_transition(Slot, ServingMode, ServingMode) override {}
  void on_admission(const ClientPlan& plan, const std::vector<int>& periods,
                    uint64_t count, ServingMode mode) override {
    EXPECT_EQ(mode, ServingMode::kStatic);
    EXPECT_EQ(plan.reception_slot.front(), plan.arrival_slot + 1);
    EXPECT_TRUE(verify_plan(plan, periods).deadlines_met);
    requests += count;
  }
  void on_slot(Slot, const std::vector<Segment>&) override {}

  uint64_t requests = 0;
};

TEST(AdaptiveVideo, StaticRungStartupWaitIsOneSlot) {
  // NPB transmits S_1 every slot, so every request on the static rung
  // starts playback one slot after its arrival and misses no deadline.
  AdaptiveVideoConfig c = config_for(9);
  c.controller.initial_mode = static_cast<int>(ServingMode::kStatic);
  c.controller.min_mode = c.controller.max_mode =
      static_cast<int>(ServingMode::kStatic);
  StartupProbe probe;
  AdaptiveVideo av(c, &mapping_for(9), &probe);
  uint64_t requests = 0;
  for (int i = 0; i < 40; ++i) {
    av.advance_slot();
    const uint64_t arrivals = static_cast<uint64_t>(i % 4);
    av.on_slot_arrivals(arrivals);
    requests += arrivals;
  }
  EXPECT_EQ(av.mode(), ServingMode::kStatic);
  EXPECT_GT(requests, 0u);
  EXPECT_EQ(probe.requests, requests);
}

TEST(AdaptiveVideo, FastAndNaiveAdmissionPathsAreBitIdentical) {
  // The placement-index/coalescing fast path must survive heuristic
  // switches: two videos, one per path, driven by the identical script,
  // must transmit identically every slot.
  const int n = 20;
  AdaptiveVideoConfig fast = config_for(n);
  AdaptiveVideoConfig naive = config_for(n);
  naive.fast_admission = false;
  AdaptiveVideo a(fast, &mapping_for(n));
  AdaptiveVideo b(naive, &mapping_for(n));
  const std::vector<ServingMode> script = {
      ServingMode::kDhb, ServingMode::kReactive, ServingMode::kDhb,
      ServingMode::kStatic, ServingMode::kReactive,
  };
  int slot = 0;
  for (ServingMode phase : script) {
    for (int i = 0; i < 30; ++i, ++slot) {
      const uint64_t arrivals = static_cast<uint64_t>((slot * 13) % 4);
      EXPECT_EQ(step(&a, arrivals, phase), step(&b, arrivals, phase))
          << "slot " << slot;
    }
  }
  EXPECT_EQ(a.switches(), b.switches());
}

TEST(DhbScheduler, PlacementAuditStaysGreenAcrossHeuristicSwitch) {
  // The satellite-2 cross-check: set_heuristic() invalidates the memo but
  // not the latest-instance cache or the range-min index — both describe
  // schedule contents. The deep audit replays every admission window
  // against the naive scans (kPlacementIndexMismatch), immediately after
  // each switch.
  DhbConfig c;
  c.num_segments = 20;
  c.use_placement_index = true;
  c.placement_index_cutover = 0;  // index always engaged
  DhbScheduler s(c);
  const ScheduleAuditor auditor;

  auto churn = [&](int slots) {
    for (int i = 0; i < slots; ++i) {
      s.on_request_batch(static_cast<uint64_t>(1 + i % 3));
      s.advance_slot_view();
    }
  };

  churn(10);
  s.set_heuristic(SlotHeuristic::kLatest);
  s.on_request_batch(2);  // first admissions under the new rule
  AuditReport after_down = auditor.audit_schedule(s.schedule());
  EXPECT_TRUE(after_down.ok()) << after_down.to_string();

  churn(10);
  s.set_heuristic(SlotHeuristic::kMinLoadLatest);
  s.on_request_batch(2);
  AuditReport after_up = auditor.audit_schedule(s.schedule());
  EXPECT_FALSE(after_up.has(AuditViolationKind::kPlacementIndexMismatch));
  EXPECT_TRUE(after_up.ok()) << after_up.to_string();
}

TEST(AdaptiveVideo, PerModeSlotCountersPartitionTheClock) {
  const int n = 9;
  AdaptiveVideo av(config_for(n), &mapping_for(n));
  for (int i = 0; i < 10; ++i) step(&av, 1, ServingMode::kDhb);
  for (int i = 0; i < 7; ++i) step(&av, 1, ServingMode::kReactive);
  for (int i = 0; i < 5; ++i) step(&av, 0, ServingMode::kStatic);
  obs::MetricShard out;
  av.export_metrics(&out);
  const uint64_t total =
      out.counter_value("adaptive_slots_mode_reactive_total") +
      out.counter_value("adaptive_slots_mode_dhb_total") +
      out.counter_value("adaptive_slots_mode_static_total");
  EXPECT_EQ(total, static_cast<uint64_t>(av.now()));
}

TEST(AdaptiveVideoDeath, RejectsMismatchedMapping) {
  EXPECT_DEATH(AdaptiveVideo(config_for(9), &mapping_for(20)), "");
}

}  // namespace
}  // namespace vod
