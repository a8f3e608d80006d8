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

TEST(QoeJsonl, GroupLinesCarryHistogramAndExemplars) {
  QoeShard qoe;
  qoe.set_context(2, 1);
  qoe.record_admission(3, /*arrival_slot=*/40, /*wait_slots=*/1.0, 0, 10);
  qoe.record_admission(1, 44, 9.0, 2, 10);
  const std::string text = obs::qoe_jsonl(qoe);
  EXPECT_TRUE(contains(text, "{\"kind\":\"qoe\",\"video\":2,\"rung\":1,"
                             "\"rung_name\":\"dhb\""));
  EXPECT_TRUE(contains(text, "\"admissions\":2,\"requests\":4,"
                             "\"segments\":40,\"late_segments\":2"));
  EXPECT_TRUE(contains(text, "\"wait_count\":4"));
  // The straggler's exemplar: bucket 144 of the 1/16-slot bins, the second
  // admission's request id (2 << 32 | 3) at its arrival slot.
  EXPECT_TRUE(contains(text, "\"bucket\":144,\"request_id\":8589934595,"
                             "\"slot\":44,\"value\":9"));
  size_t lines = 0;
  for (char c : text) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 1u);  // one line per (video, rung) group
}

TEST(SloJsonl, GroupAndRungScopesBothObjectives) {
  QoeShard qoe;
  qoe.set_context(0, 1);
  qoe.record_admission(99, 0, 1.0, 0, 10);
  qoe.set_context(1, 1);
  qoe.record_admission(100, 0, 20.0, 1, 10);  // every wait past objective 8
  const std::string text = obs::slo_jsonl(qoe);
  // Two objectives per group line, video kept.
  EXPECT_TRUE(contains(text, "\"scope\":\"group\",\"video\":0,\"rung\":1,"
                             "\"rung_name\":\"dhb\",\"objective\":"
                             "\"startup_wait\""));
  EXPECT_TRUE(contains(text, "\"objective\":\"continuity\""));
  // The rung rollup folds both videos and omits the video field.
  EXPECT_TRUE(contains(text, "\"scope\":\"rung\",\"rung\":1"));
  EXPECT_TRUE(contains(text, "\"total\":199,\"bad\":100"));
  EXPECT_TRUE(contains(text, "\"met\":false"));
  size_t lines = 0;
  for (char c : text) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 6u);  // 2 groups + 1 rung, 2 objectives each
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
