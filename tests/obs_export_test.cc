#include "obs/export.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/qoe.h"
#include "obs/trace.h"

namespace vod {
namespace {

using obs::ControllerDecision;
using obs::FlightRecorder;
using obs::MetricShard;
using obs::QoeShard;
using obs::TraceBuffer;
using obs::TraceClock;
using obs::TraceEvent;
using obs::TracePhase;

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(ChromeTrace, EnvelopeAndClockDomains) {
  TraceBuffer buffer(16);
  obs::emit_instant(&buffer, "video/done", "engine", 3, {{"rank", 1}});
  obs::emit_counter(&buffer, "streams", "dhb", 4, 7);
  TraceEvent wall;
  wall.name = "shard_kernel";
  wall.category = "engine";
  wall.phase = TracePhase::kComplete;
  wall.clock = TraceClock::kWall;
  wall.ts = 1500;   // ns -> exported as 1.5 us
  wall.dur = 2500;
  buffer.emit(wall);

  const std::string json = obs::chrome_trace_json({&buffer});
  EXPECT_TRUE(contains(json, "\"traceEvents\":["));
  EXPECT_TRUE(contains(json, "\"displayTimeUnit\":\"ms\""));
  // Process metadata names both clock domains.
  EXPECT_TRUE(contains(json, "\"process_name\""));
  EXPECT_TRUE(contains(json, "slot time"));
  EXPECT_TRUE(contains(json, "wall clock"));
  // Slot events: 1 slot = 1000 us, pid 1, instants carry a scope.
  EXPECT_TRUE(contains(json, "\"ph\":\"i\",\"ts\":3000,\"pid\":1"));
  EXPECT_TRUE(contains(json, "\"s\":\"t\""));
  EXPECT_TRUE(contains(json, "\"args\":{\"rank\":1}"));
  EXPECT_TRUE(contains(json, "\"ph\":\"C\",\"ts\":4000,\"pid\":1"));
  // Wall events: ns -> us with sub-us precision, pid 2.
  EXPECT_TRUE(contains(json, "\"ph\":\"X\",\"ts\":1.500,\"dur\":2.500"));
  EXPECT_TRUE(contains(json, "\"pid\":2"));
  EXPECT_TRUE(contains(json, "\"droppedEvents\":\"0\""));
}

TEST(ChromeTrace, MergesBuffersAndCountsDrops) {
  TraceBuffer a(2), b(2);
  for (int64_t i = 0; i < 3; ++i) {
    obs::emit_instant(&a, "a", "t", i, {});
  }
  obs::emit_instant(&b, "b", "t", 9, {});
  const std::string json = obs::chrome_trace_json({&a, nullptr, &b});
  EXPECT_TRUE(contains(json, "\"droppedEvents\":\"1\""));
  EXPECT_TRUE(contains(json, "\"name\":\"b\""));
}

TEST(ChromeTrace, CountersCarryTheirTrackAsId) {
  // Two runs of one counter on tracks 0 and 1 sample the same slot. Chrome
  // keys a counter series by (pid, name, id), so each sample carries its
  // track as its id; other phases carry none.
  TraceBuffer buffer(8);
  obs::emit_counter(&buffer, "streams", "dhb", 5, 2);
  obs::emit_instant(&buffer, "admission/rejected", "dhb", 5, {});
  buffer.set_track(1);
  obs::emit_counter(&buffer, "streams", "dhb", 5, 3);
  const std::string json = obs::chrome_trace_json({&buffer});
  EXPECT_TRUE(contains(json, "\"ts\":5000,\"pid\":1,\"tid\":0,\"id\":0,"
                             "\"args\":{\"value\":2}"));
  EXPECT_TRUE(contains(json, "\"ts\":5000,\"pid\":1,\"tid\":1,\"id\":1,"
                             "\"args\":{\"value\":3}"));
  EXPECT_TRUE(contains(json, "\"ph\":\"i\",\"ts\":5000,\"pid\":1,"
                             "\"tid\":0,\"s\":\"t\""));
}

TEST(QoeJsonl, GroupLinesCarryHistogramAndExemplars) {
  QoeShard qoe;
  EXPECT_TRUE(obs::qoe_jsonl(qoe).empty());  // nothing recorded yet
  qoe.record_admission(3, /*arrival_slot=*/40, /*wait_slots=*/1.0, 0, 10);
  qoe.record_admission(1, 44, 9.0, 2, 10);
  const std::string text = obs::qoe_jsonl(qoe);
  EXPECT_TRUE(contains(text, "{\"kind\":\"qoe\",\"admissions\":2,"
                             "\"requests\":4,\"segments\":40,"
                             "\"late_segments\":2"));
  EXPECT_TRUE(contains(text, "\"wait_count\":4"));
  // The straggler's exemplar: bucket 144 of the 1/16-slot bins, the second
  // admission's request id (3, after the first batch's 0..2) at its
  // arrival slot.
  EXPECT_TRUE(contains(text, "\"bucket\":144,\"request_id\":3,"
                             "\"slot\":44,\"value\":9"));
  size_t lines = 0;
  for (char c : text) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 1u);  // one line per QoE stream
}

TEST(SloJsonl, OneLinePerObjective) {
  QoeShard qoe;
  EXPECT_TRUE(obs::slo_jsonl(qoe).empty());  // nothing recorded yet
  qoe.record_admission(99, 0, 1.0, 0, 10);
  qoe.record_admission(100, 0, 20.0, 1, 10);  // every wait past objective 8
  const std::string text = obs::slo_jsonl(qoe);
  EXPECT_TRUE(contains(text, "{\"kind\":\"slo\",\"objective\":"
                             "\"startup_wait\",\"target\":8,"
                             "\"budget\":0.01,\"total\":199,\"bad\":100"));
  EXPECT_TRUE(contains(text, "{\"kind\":\"slo\",\"objective\":"
                             "\"continuity\",\"target\":0.999,"
                             "\"budget\":0.001,\"total\":1990,"
                             "\"bad\":100"));
  EXPECT_TRUE(contains(text, "\"met\":false"));
  EXPECT_TRUE(contains(text, "\"fast_window_slots\":64"));
  EXPECT_TRUE(contains(text, "\"slow_window_slots\":512"));
  size_t lines = 0;
  for (char c : text) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 2u);  // one per objective
}

TEST(DecisionsJsonl, OneLinePerRetainedDecision) {
  FlightRecorder a(4), b(4);
  ControllerDecision d;
  d.slot = 12;
  d.video = 3;
  d.rung_before = 1;
  d.rung_after = 2;
  d.committed = true;
  a.record(d);
  d.slot = 13;
  d.committed = false;
  d.dwell_blocked = true;
  b.record(d);
  const std::string text = obs::decisions_jsonl({&a, nullptr, &b});
  EXPECT_TRUE(contains(text, "{\"kind\":\"decision\",\"slot\":12,"
                             "\"video\":3"));
  EXPECT_TRUE(contains(text, "\"rung_before\":1,\"rung_after\":2"));
  EXPECT_TRUE(contains(text, "\"committed\":true"));
  EXPECT_TRUE(contains(text, "\"slot\":13"));
  EXPECT_TRUE(contains(text, "\"dwell_blocked\":true"));
  size_t lines = 0;
  for (char c : text) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 2u);
}

TEST(Jsonl, SelfDescribingSnapshotPerLine) {
  MetricShard m;
  m.counter("a_total")->inc(2);
  m.gauge("g")->set(0.5);
  obs::HistogramMetric* h = m.histogram("h", 0.0, 2.0, 2);
  h->observe(0.5);
  h->observe(1.25);
  h->observe(1.5);

  const std::string text = obs::metrics_jsonl(m);
  EXPECT_TRUE(contains(
      text, "{\"kind\":\"counter\",\"name\":\"a_total\",\"value\":2}\n"));
  EXPECT_TRUE(contains(text,
                       "{\"kind\":\"gauge\",\"name\":\"g\",\"value\":0.5}\n"));
  // A histogram line carries its count, sum and bin layout, and its bins
  // sum to the count.
  EXPECT_TRUE(contains(text, "{\"kind\":\"histogram\",\"name\":\"h\","
                             "\"count\":3,\"sum\":3.25,\"lo\":0,"
                             "\"bin_width\":1,\"bins\":[1,2]}\n"));
  // Exactly one object per line, and nothing else.
  size_t lines = 0;
  for (char c : text) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 3u);
}

}  // namespace
}  // namespace vod
