#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/flight_recorder.h"

namespace vod {
namespace {

using obs::EngineObserver;
using obs::ObsSink;
using obs::ScopedObsSink;
using obs::TraceBuffer;
using obs::TraceClock;
using obs::TraceEvent;
using obs::TracePhase;

TraceEvent instant(const char* name, int64_t slot) {
  TraceEvent e;
  e.name = name;
  e.category = "test";
  e.phase = TracePhase::kInstant;
  e.ts = slot;
  return e;
}

TEST(TraceBuffer, RingKeepsMostRecent) {
  TraceBuffer buffer(4);
  for (int64_t i = 0; i < 6; ++i) buffer.emit(instant("e", i));
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.dropped(), 2u);
  EXPECT_EQ(buffer.emitted(), 6u);
  const std::vector<TraceEvent> events = buffer.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts, static_cast<int64_t>(i + 2));  // oldest first
  }
}

TEST(TraceBuffer, DefaultTrackStampsConvenienceEmitters) {
  TraceBuffer buffer(8);
  buffer.set_track(7);
  obs::emit_instant(&buffer, "a", "test", 1, {{"k", 2}});
  obs::emit_counter(&buffer, "c", "test", 2, 9);
  const std::vector<TraceEvent> events = buffer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].track, 7u);
  ASSERT_EQ(events[0].num_args, 1u);
  EXPECT_STREQ(events[0].args[0].key, "k");
  EXPECT_EQ(events[0].args[0].value, 2);
  EXPECT_EQ(events[1].phase, TracePhase::kCounter);
  EXPECT_EQ(events[1].track, 7u);
}

TEST(ScopedSink, InstallsAndRestoresNested) {
  EXPECT_EQ(obs::current_sink(), nullptr);
  ObsSink outer, inner;
  {
    ScopedObsSink a(&outer);
    EXPECT_EQ(obs::current_sink(), &outer);
    {
      ScopedObsSink b(&inner);
      EXPECT_EQ(obs::current_sink(), &inner);
    }
    EXPECT_EQ(obs::current_sink(), &outer);
  }
  EXPECT_EQ(obs::current_sink(), nullptr);
}

#ifndef VOD_OBSERVE_DISABLED

TEST(Macros, RecordIntoAmbientSink) {
  obs::MetricShard metrics;
  TraceBuffer trace(16);
  ObsSink sink{&metrics, &trace};
  ScopedObsSink scoped(&sink);

  VOD_TRACE_INSTANT("evt", "test", 5, {"n", 3}, {"m", 4});
  VOD_TRACE_COUNTER("streams", "test", 6, 11);
  VOD_METRIC_INC("hits_total", 2);

  const std::vector<TraceEvent> events = trace.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "evt");
  EXPECT_EQ(events[0].ts, 5);
  ASSERT_EQ(events[0].num_args, 2u);
  EXPECT_EQ(events[0].args[1].value, 4);
  EXPECT_EQ(events[1].phase, TracePhase::kCounter);
  ASSERT_EQ(events[1].num_args, 1u);
  EXPECT_EQ(events[1].args[0].value, 11);
  EXPECT_EQ(metrics.counter_value("hits_total"), 2u);
}

TEST(Macros, TraceOnlySinkSkipsMetrics) {
  TraceBuffer trace(16);
  ObsSink sink{nullptr, &trace};
  ScopedObsSink scoped(&sink);
  VOD_METRIC_INC("hits_total", 1);   // no shard: dropped, no crash
  VOD_TRACE_INSTANT("evt", "test", 1);
  EXPECT_EQ(trace.size(), 1u);
}

TEST(WallSpan, EmitsCompleteWallEvent) {
  obs::MetricShard metrics;
  TraceBuffer trace(16);
  ObsSink sink{&metrics, &trace};
  ScopedObsSink scoped(&sink);
  {
    VOD_TRACE_WALL_SPAN("kernel", "test");
  }
  const std::vector<TraceEvent> events = trace.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, TracePhase::kComplete);
  EXPECT_EQ(events[0].clock, TraceClock::kWall);
  EXPECT_GE(events[0].ts, 0);
  EXPECT_GE(events[0].dur, 0);
}

#endif  // VOD_OBSERVE_DISABLED

TEST(Macros, NoSinkIsSafe) {
  ASSERT_EQ(obs::current_sink(), nullptr);
  VOD_TRACE_INSTANT("evt", "test", 1, {"n", 1});
  VOD_TRACE_COUNTER("streams", "test", 1, 1);
  VOD_METRIC_INC("hits_total", 1);
  VOD_TRACE_WALL_SPAN("kernel", "test");
}

TEST(EngineObserver, ShardsAreIndependentAndMergeInOrder) {
  EngineObserver observer;
  observer.prepare(3);
  EXPECT_EQ(observer.num_shards(), 3u);

  for (size_t s = 0; s < 3; ++s) {
    ObsSink sink = observer.sink(s);
    ASSERT_NE(sink.metrics, nullptr);
    ASSERT_NE(sink.trace, nullptr);
    ASSERT_NE(sink.flight, nullptr);
    EXPECT_EQ(sink.qoe, nullptr);  // the engine records no QoE
    sink.metrics->counter("videos_total")->inc(s + 1);
    sink.trace->emit(instant("done", static_cast<int64_t>(s)));
  }
  EXPECT_EQ(observer.merged_metrics().counter_value("videos_total"), 6u);
  const std::vector<const TraceBuffer*> buffers = observer.trace_buffers();
  ASSERT_EQ(buffers.size(), 3u);
  for (size_t s = 0; s < 3; ++s) {
    ASSERT_EQ(buffers[s]->size(), 1u);
    EXPECT_EQ(buffers[s]->snapshot()[0].ts, static_cast<int64_t>(s));
    EXPECT_EQ(buffers[s]->capacity(), size_t{1} << 15);
  }
  for (const obs::FlightRecorder* f : observer.flight_recorders()) {
    EXPECT_EQ(f->capacity(), 128u);
  }
  observer.prepare(2);  // never shrinks, shards keep their contents
  EXPECT_EQ(observer.num_shards(), 3u);
  EXPECT_EQ(observer.merged_metrics().counter_value("videos_total"), 6u);
}

TEST(EngineObserver, MergedFoldsAllShards) {
  EngineObserver observer;
  observer.prepare(3);
  for (size_t s = 0; s < 3; ++s) {
    obs::MetricShard& shard = *observer.sink(s).metrics;
    shard.counter("videos_total")->inc(s + 1);
    shard.histogram("batch", 0.0, 8.0, 8)->observe(static_cast<double>(s));
  }
  const obs::MetricShard merged = observer.merged_metrics();
  EXPECT_EQ(merged.counter_value("videos_total"), 6u);
  ASSERT_NE(merged.find_histogram("batch"), nullptr);
  EXPECT_EQ(merged.find_histogram("batch")->count(), 3u);
}

TEST(EngineObserver, PrepareGrowsAndKeepsHandles) {
  EngineObserver observer;
  observer.prepare(1);
  obs::Counter* c = observer.sink(0).metrics->counter("a_total");
  c->inc();
  observer.prepare(4);
  EXPECT_EQ(observer.num_shards(), 4u);
  EXPECT_EQ(observer.sink(0).metrics->counter("a_total"), c);  // still valid
  observer.prepare(2);  // never shrinks
  EXPECT_EQ(observer.num_shards(), 4u);
  EXPECT_EQ(observer.merged_metrics().counter_value("a_total"), 1u);
}

}  // namespace
}  // namespace vod
