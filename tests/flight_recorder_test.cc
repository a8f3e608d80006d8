// The adaptive-decision flight recorder (obs/flight_recorder.h): the ring
// keeps the last N decisions oldest-first, AdaptiveVideo records both
// dwell-blocked and committed transitions through the ambient sink, and an
// armed violation dump writes every live recorder's ring plus every live
// QoeShard's recent samples to JSONL when a VOD_CHECK fires — before
// chaining to the previously installed handler.
#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/qoe.h"
#include "obs/trace.h"
#include "protocols/npb.h"
#include "server/adaptive_video.h"
#include "util/check.h"

namespace vod {
namespace {

using obs::ControllerDecision;
using obs::FlightRecorder;
using obs::ObsSink;
using obs::QoeShard;
using obs::ScopedObsSink;

ControllerDecision decision_at(int64_t slot) {
  ControllerDecision d;
  d.slot = slot;
  d.video = 5;
  d.rung_before = 1;
  d.rung_after = 2;
  d.committed = true;
  return d;
}

TEST(FlightRecorder, RingKeepsLastNOldestFirst) {
  FlightRecorder flight(4);
  EXPECT_EQ(flight.capacity(), 4u);
  EXPECT_TRUE(flight.snapshot().empty());
  for (int64_t s = 0; s < 6; ++s) flight.record(decision_at(s));
  EXPECT_EQ(flight.recorded(), 6u);
  const std::vector<ControllerDecision> kept = flight.snapshot();
  ASSERT_EQ(kept.size(), 4u);
  for (size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].slot, static_cast<int64_t>(2 + i));
  }
}

TEST(FlightRecorder, PartialRingSnapshotsInOrder) {
  FlightRecorder flight(8);
  flight.record(decision_at(3));
  flight.record(decision_at(7));
  const std::vector<ControllerDecision> kept = flight.snapshot();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].slot, 3);
  EXPECT_EQ(kept[1].slot, 7);
  EXPECT_EQ(kept[1].video, 5u);
  EXPECT_TRUE(kept[1].committed);
}

#ifndef VOD_OBSERVE_DISABLED

TEST(FlightRecorder, AmbientSinkRoutesCurrentFlight) {
  EXPECT_EQ(obs::current_flight(), nullptr);
  FlightRecorder flight;
  ObsSink sink{nullptr, nullptr, nullptr, &flight};
  {
    ScopedObsSink scoped(&sink);
    EXPECT_EQ(obs::current_flight(), &flight);
    // Masking with a null sink silences recording.
    ScopedObsSink silence(nullptr);
    EXPECT_EQ(obs::current_flight(), nullptr);
  }
  EXPECT_EQ(obs::current_flight(), nullptr);
}

const NpbMapping& mapping_for(int n) {
  static std::optional<NpbMapping> cache;
  if (!cache) cache = NpbMapping::build(NpbMapping::streams_for(n), n);
  return *cache;
}

TEST(FlightRecorder, AdaptiveVideoRecordsCommitsAndDwellBlocks) {
  // Drive a video from cold to hot and back with a short min-dwell: the
  // controller's wants-to-move-but-blocked slots and the boundary commits
  // must both land in the recorder, in slot order.
  AdaptiveVideoConfig cfg;
  cfg.num_segments = 20;
  cfg.video_id = 42;
  cfg.controller.min_dwell_slots = 8;
  FlightRecorder flight;
  ObsSink sink{nullptr, nullptr, nullptr, &flight};
  ScopedObsSink scoped(&sink);
  AdaptiveVideo av(cfg, &mapping_for(cfg.num_segments));
  for (int i = 0; i < 40; ++i) {
    av.advance_slot();
    av.on_slot_arrivals(i < 20 ? 5 : 0);  // hot burst, then silence
  }
  const std::vector<ControllerDecision> kept = flight.snapshot();
  ASSERT_FALSE(kept.empty());
  uint64_t commits = 0;
  uint64_t blocked = 0;
  int64_t last_slot = -1;
  for (const ControllerDecision& d : kept) {
    EXPECT_EQ(d.video, 42u);
    EXPECT_GE(d.slot, last_slot);
    last_slot = d.slot;
    commits += d.committed ? 1 : 0;
    blocked += d.dwell_blocked ? 1 : 0;
    EXPECT_FALSE(d.forced);
  }
  EXPECT_EQ(commits, av.switches());
  EXPECT_GE(commits, 1u);
  EXPECT_GE(blocked, 1u);  // the burst outruns the 8-slot min dwell
}

TEST(FlightRecorder, ForcedSwitchesAreMarked) {
  AdaptiveVideoConfig cfg;
  cfg.num_segments = 20;
  cfg.video_id = 7;
  FlightRecorder flight;
  ObsSink sink{nullptr, nullptr, nullptr, &flight};
  ScopedObsSink scoped(&sink);
  AdaptiveVideo av(cfg, &mapping_for(cfg.num_segments));
  av.advance_slot();
  av.on_slot_arrivals(1);
  av.force_mode(ServingMode::kStatic);  // cold video: not the bands' pick
  av.advance_slot();
  av.on_slot_arrivals(0);
  bool saw_forced_commit = false;
  for (const ControllerDecision& d : flight.snapshot()) {
    if (d.committed && d.forced) {
      saw_forced_commit = true;
      EXPECT_EQ(d.rung_after, static_cast<int32_t>(ServingMode::kStatic));
    }
  }
  EXPECT_TRUE(saw_forced_commit);
}

#endif  // !VOD_OBSERVE_DISABLED

// --- Violation dump -------------------------------------------------------

// A throwing handler lets the test survive the injected VOD_CHECK failure;
// the dump handler chains to it after writing the JSONL context.
[[noreturn]] void throwing_handler(const char* expr, const char*, int,
                                   const char*) {
  throw std::runtime_error(std::string("VOD_CHECK fired: ") + expr);
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(ViolationDump, CheckFailureDumpsDecisionsAndSamples) {
  const std::string path =
      std::string(::testing::TempDir()) + "/violation_dump.jsonl";
  (void)std::remove(path.c_str());

  // Context that should appear in the dump: a recorder with more decisions
  // than capacity (only the last N survive) and a QoE shard with samples.
  FlightRecorder flight(3);
  for (int64_t s = 0; s < 5; ++s) flight.record(decision_at(s));
  QoeShard qoe;
  qoe.record_admission(2, /*arrival_slot=*/30, /*wait_slots=*/1.5, 0, 10);

  const CheckFailureHandler previous =
      set_check_failure_handler(&throwing_handler);
  obs::arm_violation_dump(path);
  const uint64_t dumps_before = obs::violation_dump_count();
  EXPECT_THROW(VOD_CHECK_MSG(1 == 2, "injected for the dump test"),
               std::runtime_error);
  obs::disarm_violation_dump();
  set_check_failure_handler(previous);

  EXPECT_EQ(obs::violation_dump_count(), dumps_before + 1);
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_FALSE(lines.empty());
  // Header line: the failing check's site.
  EXPECT_TRUE(contains(lines[0], "\"kind\":\"violation\""));
  EXPECT_TRUE(contains(lines[0], "\"expr\":\"1 == 2\""));
  EXPECT_TRUE(contains(lines[0], "injected for the dump test"));
  EXPECT_TRUE(contains(lines[0], "flight_recorder_test"));
  // Exactly the retained decisions (slots 2..4), oldest first.
  std::vector<std::string> decisions;
  std::vector<std::string> samples;
  for (size_t i = 1; i < lines.size(); ++i) {
    if (contains(lines[i], "\"kind\":\"decision\"")) {
      decisions.push_back(lines[i]);
    } else if (contains(lines[i], "\"kind\":\"qoe_sample\"")) {
      samples.push_back(lines[i]);
    } else {
      ADD_FAILURE() << "unexpected dump line: " << lines[i];
    }
  }
  ASSERT_EQ(decisions.size(), 3u);
  for (size_t i = 0; i < decisions.size(); ++i) {
    EXPECT_TRUE(contains(decisions[i],
                         "\"slot\":" + std::to_string(2 + i) + ","))
        << decisions[i];
    EXPECT_TRUE(contains(decisions[i], "\"committed\":true"));
  }
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_TRUE(contains(samples[0], "{\"kind\":\"qoe_sample\","
                                   "\"request_id\":0,\"slot\":30,"
                                   "\"wait_slots\":1.5,\"count\":2,"));

  (void)std::remove(path.c_str());
}

TEST(ViolationDump, DisarmRestoresThePreviousHandler) {
  const std::string path =
      std::string(::testing::TempDir()) + "/violation_dump_disarm.jsonl";
  (void)std::remove(path.c_str());
  const CheckFailureHandler previous =
      set_check_failure_handler(&throwing_handler);
  obs::arm_violation_dump(path);
  obs::disarm_violation_dump();
  const uint64_t dumps = obs::violation_dump_count();
  // The throwing handler is back in charge and no dump is written.
  EXPECT_THROW(VOD_CHECK(2 + 2 == 5), std::runtime_error);
  EXPECT_EQ(obs::violation_dump_count(), dumps);
  EXPECT_TRUE(read_lines(path).empty());
  set_check_failure_handler(previous);
}

}  // namespace
}  // namespace vod
