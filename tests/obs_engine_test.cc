// The engine-level observability contract: attaching an EngineObserver
// never changes simulation results, and the observer's merged view is
// bit-identical at any thread count (shards record independently, the
// merge folds them in ascending shard order).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/qoe.h"
#include "obs/trace.h"
#include "server/multi_video.h"

namespace vod {
namespace {

MultiVideoConfig engine_config() {
  MultiVideoConfig config;
  config.catalog_size = 130;  // 3 shards at kShardSize = 64
  config.num_segments = 20;
  config.total_requests_per_hour = 400.0;
  config.warmup_hours = 1.0;
  config.measured_hours = 10.0;
  config.seed = 20010416;
  return config;
}

// A diurnal adaptive catalog whose controller switches rungs.
MultiVideoConfig adaptive_config() {
  MultiVideoConfig config;
  config.catalog_size = 150;  // 3 shards at kShardSize = 64
  config.num_segments = 20;
  config.policy = VideoPolicy::kAdaptive;
  config.total_requests_per_hour = 40.0;
  config.diurnal_peak_requests_per_hour = 800.0;
  config.warmup_hours = 1.0;
  config.measured_hours = 24.0;
  config.adaptive.ewma.half_life_slots = 16.0;
  config.adaptive.controller.min_dwell_slots = 16;
  config.seed = 20010416;
  return config;
}

void expect_same_result(const MultiVideoResult& a, const MultiVideoResult& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.measured_slots, b.measured_slots);
  EXPECT_DOUBLE_EQ(a.avg_streams, b.avg_streams);
  EXPECT_DOUBLE_EQ(a.max_streams, b.max_streams);
  EXPECT_EQ(a.per_video_requests, b.per_video_requests);
}

void expect_same_metrics(const obs::MetricShard& a,
                         const obs::MetricShard& b) {
  ASSERT_EQ(a.counters().size(), b.counters().size());
  for (const auto& [name, counter] : a.counters()) {
    const obs::Counter* other = b.find_counter(name);
    ASSERT_NE(other, nullptr) << name;
    EXPECT_EQ(counter.value(), other->value()) << name;
  }
  ASSERT_EQ(a.histograms().size(), b.histograms().size());
  for (const auto& [name, hist] : a.histograms()) {
    const obs::HistogramMetric* other = b.find_histogram(name);
    ASSERT_NE(other, nullptr) << name;
    EXPECT_EQ(hist.count(), other->count()) << name;
    EXPECT_EQ(hist.histogram().bins(), other->histogram().bins()) << name;
  }
}

TEST(EngineObservability, ObserverDoesNotChangeResults) {
  MultiVideoConfig bare = engine_config();
  const MultiVideoResult without = run_multi_video_simulation(bare);

  obs::EngineObserver observer;
  MultiVideoConfig observed = engine_config();
  observed.observer = &observer;
  const MultiVideoResult with = run_multi_video_simulation(observed);

  expect_same_result(without, with);
  EXPECT_EQ(observer.num_shards(), 3u);
  const obs::MetricShard merged = observer.merged_metrics();
  EXPECT_EQ(merged.counter_value("engine_videos_total"), 130u);
  // Every admitted request receives one instance (new or shared) per
  // segment of its video.
  EXPECT_EQ(merged.counter_value("dhb_requests_total") * 20u,
            merged.counter_value("dhb_new_instances_total") +
                merged.counter_value("dhb_shared_instances_total"));
}

TEST(EngineObservability, MergedMetricsBitIdenticalAcrossThreadCounts) {
  obs::EngineObserver sequential_observer;
  MultiVideoConfig sequential = engine_config();
  sequential.num_threads = 1;
  sequential.observer = &sequential_observer;
  const MultiVideoResult base = run_multi_video_simulation(sequential);
  const obs::MetricShard base_metrics = sequential_observer.merged_metrics();

  for (int threads : {2, 4, 8}) {
    obs::EngineObserver observer;
    MultiVideoConfig parallel = engine_config();
    parallel.num_threads = threads;
    parallel.observer = &observer;
    const MultiVideoResult result = run_multi_video_simulation(parallel);
    expect_same_result(base, result);
    expect_same_metrics(base_metrics, observer.merged_metrics());
  }
}

// The slot-domain events of every shard's ring, shard by shard; kWall
// spans carry wall-clock times and are left out.
std::string slot_trace_text(const obs::EngineObserver& observer) {
  std::ostringstream out;
  for (const obs::TraceBuffer* buffer : observer.trace_buffers()) {
    out << "buffer emitted=" << buffer->emitted()
        << " dropped=" << buffer->dropped() << "\n";
    for (const obs::TraceEvent& e : buffer->snapshot()) {
      if (e.clock == obs::TraceClock::kWall) continue;
      out << e.name << ' ' << e.category << ' '
          << static_cast<int>(e.phase) << ' ' << e.ts << ' ' << e.track;
      for (uint32_t a = 0; a < e.num_args; ++a) {
        out << ' ' << e.args[a].key << '=' << e.args[a].value;
      }
      out << '\n';
    }
  }
  return out.str();
}

// Every exported observer output, not only the merged metrics, is
// byte-identical at any thread count. A shard that ran twice would leave
// MultiVideoResult unchanged but double its recordings, so this is also
// the engine-level check that each shard runs exactly once.
TEST(EngineObservability, ObserverOutputsByteIdenticalAcrossThreadCounts) {
  const MultiVideoConfig config = adaptive_config();
  struct Outputs {
    std::string qoe;
    std::string slo;
    std::string decisions;
    std::string slot_trace;
  };
  const auto observe = [&config](int threads) {
    obs::EngineObserver observer;
    MultiVideoConfig run = config;
    run.num_threads = threads;
    run.observer = &observer;
    run_multi_video_simulation(run);
    const std::unique_ptr<obs::QoeShard> qoe = observer.merged_qoe();
    return Outputs{obs::qoe_jsonl(*qoe), obs::slo_jsonl(*qoe),
                   obs::decisions_jsonl(observer.flight_recorders()),
                   slot_trace_text(observer)};
  };

  const Outputs base = observe(1);
  // The engine records no QoE (every client starts one slot after it
  // arrives and misses no deadline), so its QoE and SLO files are empty.
  EXPECT_TRUE(base.qoe.empty());
  EXPECT_TRUE(base.slo.empty());
#ifndef VOD_OBSERVE_DISABLED
  EXPECT_NE(base.decisions.find("\"kind\":\"decision\""), std::string::npos);
  EXPECT_NE(base.slot_trace.find("adaptive/switch"), std::string::npos);
#endif
  // Compared with ==, not EXPECT_EQ: a failure would print hundreds of
  // kilobytes of JSONL.
  const auto expect_same = [](const std::string& got, const std::string& want,
                              const char* what) {
    EXPECT_TRUE(got == want) << what << ": " << got.size() << " bytes vs "
                             << want.size() << " at one thread";
  };
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE(threads);
    const Outputs got = observe(threads);
    expect_same(got.qoe, base.qoe, "qoe_jsonl");
    expect_same(got.slo, base.slo, "slo_jsonl");
    expect_same(got.decisions, base.decisions, "decisions_jsonl");
    expect_same(got.slot_trace, base.slot_trace, "slot-domain trace");
  }
}

TEST(EngineObservability, PerShardTracesLandOnOwnTracks) {
  obs::EngineObserver observer;
  MultiVideoConfig config = engine_config();
  config.observer = &observer;
  run_multi_video_simulation(config);

  const std::vector<const obs::TraceBuffer*> buffers =
      observer.trace_buffers();
  ASSERT_EQ(buffers.size(), 3u);
#ifndef VOD_OBSERVE_DISABLED
  for (size_t s = 0; s < buffers.size(); ++s) {
    EXPECT_GT(buffers[s]->emitted(), 0u) << s;
    for (const obs::TraceEvent& e : buffers[s]->snapshot()) {
      if (e.clock == obs::TraceClock::kWall) continue;  // kernel spans
      EXPECT_EQ(e.track, static_cast<uint32_t>(s));
    }
  }
#endif
}

TEST(EngineObservability, CatalogsObserveOnlyWhatCanVary) {
  // An admission's outcome is in the dhb_* counters, and every engine
  // client starts one slot after it arrives and misses no deadline. So an
  // observed DHB or hybrid catalog emits one slot-domain event per video
  // (video/done), an adaptive one adds only its switches, and no catalog
  // records a QoE sample.
  MultiVideoConfig hybrid = engine_config();
  hybrid.policy = VideoPolicy::kHybrid;
  for (const MultiVideoConfig& config :
       {engine_config(), hybrid, adaptive_config()}) {
    SCOPED_TRACE(static_cast<int>(config.policy));
    obs::EngineObserver observer;
    MultiVideoConfig observed = config;
    observed.num_threads = 4;
    observed.observer = &observer;
    ASSERT_GT(run_multi_video_simulation(observed).requests, 0u);
#ifndef VOD_OBSERVE_DISABLED
    EXPECT_GT(observer.merged_metrics().counter_value("dhb_requests_total"),
              0u);
    std::map<std::string, uint64_t> names;
    for (const obs::TraceBuffer* buffer : observer.trace_buffers()) {
      EXPECT_EQ(buffer->dropped(), 0u);
      for (const obs::TraceEvent& e : buffer->snapshot()) {
        if (e.clock == obs::TraceClock::kSlot) ++names[e.name];
      }
    }
    EXPECT_EQ(names["video/done"],
              static_cast<uint64_t>(config.catalog_size));
    names.erase("video/done");
    if (config.policy == VideoPolicy::kAdaptive) {
      EXPECT_GT(names["adaptive/switch"], 0u);
      names.erase("adaptive/switch");
      names.erase("heuristic/switch");
    }
    EXPECT_TRUE(names.empty()) << names.begin()->first;
#endif
    // The same catalog inline (one thread, no observer) under an ambient
    // sink that carries a QoE shard: a QoE record anywhere in the engine's
    // call tree would land in it.
    obs::QoeShard qoe;
    obs::ObsSink sink{nullptr, nullptr, &qoe, nullptr};
    {
      obs::ScopedObsSink scoped(&sink);
      run_multi_video_simulation(config);
    }
    EXPECT_EQ(qoe.total_requests(), 0u);
    EXPECT_TRUE(qoe.groups().empty());
  }
}

}  // namespace
}  // namespace vod
