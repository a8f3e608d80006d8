#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/dhb.h"
#include "util/check.h"

namespace vod {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::HistogramMetric;
using obs::MetricShard;

[[noreturn]] void throwing_handler(const char* expr, const char*, int,
                                   const char*) {
  throw std::runtime_error(std::string("VOD_CHECK fired: ") + expr);
}

class ScopedThrowingHandler {
 public:
  ScopedThrowingHandler()
      : previous_(set_check_failure_handler(&throwing_handler)) {}
  ~ScopedThrowingHandler() { set_check_failure_handler(previous_); }

 private:
  CheckFailureHandler previous_;
};

TEST(MetricShard, FindOrCreateReturnsStableHandles) {
  MetricShard shard;
  Counter* c = shard.counter("a_total");
  c->inc(3);
  EXPECT_EQ(shard.counter("a_total"), c);  // same node, not a new metric
  Gauge* g = shard.gauge("depth");
  g->set(2.5);
  EXPECT_EQ(shard.gauge("depth"), g);
  HistogramMetric* h = shard.histogram("lat", 0.0, 10.0, 10);
  h->observe(4.0);
  EXPECT_EQ(shard.histogram("lat", 0.0, 10.0, 10), h);
  EXPECT_EQ(shard.counter_value("a_total"), 3u);
}

TEST(MetricShard, LookupsOnAbsentNames) {
  const MetricShard shard;
  EXPECT_EQ(shard.find_counter("nope"), nullptr);
  EXPECT_EQ(shard.find_gauge("nope"), nullptr);
  EXPECT_EQ(shard.find_histogram("nope"), nullptr);
  EXPECT_EQ(shard.counter_value("nope"), 0u);
  EXPECT_TRUE(shard.empty());
}

TEST(MetricShard, HistogramSpecMismatchFires) {
  ScopedThrowingHandler scoped;
  MetricShard shard;
  shard.histogram("lat", 0.0, 10.0, 10);
  EXPECT_THROW(shard.histogram("lat", 0.0, 20.0, 10), std::runtime_error);
  EXPECT_THROW(shard.histogram("lat", 0.0, 10.0, 5), std::runtime_error);
}

TEST(MetricShard, MergeFromAddsEverything) {
  MetricShard a, b;
  a.counter("shared_total")->inc(2);
  b.counter("shared_total")->inc(5);
  b.counter("only_b_total")->inc(1);
  a.gauge("load")->set(1.5);
  b.gauge("load")->set(2.0);
  a.histogram("lat", 0.0, 4.0, 4)->observe(1.5);
  b.histogram("lat", 0.0, 4.0, 4)->observe(1.5);
  b.histogram("lat", 0.0, 4.0, 4)->observe(3.5);

  a.merge_from(b);
  EXPECT_EQ(a.counter_value("shared_total"), 7u);
  EXPECT_EQ(a.counter_value("only_b_total"), 1u);  // created on merge
  EXPECT_DOUBLE_EQ(a.find_gauge("load")->value(), 3.5);  // gauges sum
  const HistogramMetric* h = a.find_histogram("lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_EQ(h->histogram().bins()[1], 2u);
  EXPECT_EQ(h->histogram().bins()[3], 1u);
  EXPECT_DOUBLE_EQ(h->sum(), 6.5);
}

// The scheduler's export carries its total_*() accessors and the
// schedule-layer structural meters under their metric names.
TEST(DhbSchedulerMetrics, AccessorsAreRegistryViews) {
  DhbConfig config;
  config.num_segments = 20;
  DhbScheduler scheduler(config);
  for (int slot = 0; slot < 30; ++slot) {
    scheduler.advance_slot_view();
    scheduler.on_request_batch(2);
  }
  MetricShard m;
  scheduler.export_metrics(&m);
  EXPECT_EQ(m.counter_value("dhb_requests_total"),
            scheduler.total_requests());
  EXPECT_EQ(m.counter_value("dhb_work_units_total"),
            scheduler.total_work_units());
  EXPECT_EQ(m.counter_value("dhb_new_instances_total") +
                m.counter_value("dhb_shared_instances_total"),
            scheduler.total_new_instances() + scheduler.total_shared());
  EXPECT_GT(m.counter_value("schedule_instances_added_total"), 0u);
  EXPECT_EQ(m.counter_value("schedule_advances_total"), 30u);

  MetricShard out;
  out.counter("dhb_requests_total")->inc(5);  // pre-existing content adds
  scheduler.export_metrics(&out);
  EXPECT_EQ(out.counter_value("dhb_requests_total"),
            scheduler.total_requests() + 5);
}

}  // namespace
}  // namespace vod
