// Metrics registry: named counters, gauges, and fixed-bucket histograms.
//
// The instrumentation layer's data plane. A MetricShard is a flat,
// deterministic-order (std::map) collection of named metrics owned by one
// writer at a time — a scheduler, a simulation driver, or one worker of
// the sharded multi-video engine. A MetricsRegistry owns one shard per
// engine shard; because shards are written without any cross-thread
// sharing and merged in fixed shard-index order, recording is contention-
// free and every merged value is bit-identical at any `num_threads`
// (counters and histogram bins are integer sums; gauges merge by summing
// in shard order).
//
// Metric handles (Counter*, Gauge*, HistogramMetric*) returned by the
// find-or-create accessors are stable for the shard's lifetime (std::map
// nodes never move), so hot paths pay one pointer indirection per update.
// Schedulers and simulation loops keep their lifetime counters as plain
// fields and add them into a shard when they export.
//
// This header is always compiled: exports and the engine's explicit metric
// writes go through it in every build. Only the VOD_TRACE_* event macros
// (obs/trace.h) compile away under VOD_OBSERVE=OFF.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/stats.h"
#include "util/thread_checker.h"

namespace vod::obs {

class Counter {
 public:
  void inc(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double v) { value_ += v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// A fixed-bucket histogram plus a running sum, the shape the JSONL
// snapshot needs. Buckets are vod::Histogram semantics: [lo, hi) with
// clamping edge bins.
class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi, size_t bins)
      : hist_(lo, hi, bins) {}

  void observe(double x) {
    hist_.add(x);
    sum_ += x;
  }
  void observe_n(double x, uint64_t n) {
    hist_.add_n(x, n);
    sum_ += x * static_cast<double>(n);
  }

  uint64_t count() const { return hist_.count(); }
  double sum() const { return sum_; }
  double quantile(double q) const { return hist_.quantile(q); }
  const Histogram& histogram() const { return hist_; }

  // Same-spec bin-wise merge (the per-shard merge point).
  void merge(const HistogramMetric& other) {
    hist_.merge(other.hist_);
    sum_ += other.sum_;
  }

 private:
  Histogram hist_;
  double sum_ = 0.0;
};

// One writer's flat metric namespace. Find-or-create accessors return
// stable handles; exporters iterate the maps in name order, so output
// order is deterministic regardless of creation order.
//
// Concurrency contract: one writer at a time, no locks (DESIGN.md §11).
// The find-or-create accessors and merge_from() assert the single-writer
// discipline in Debug builds; const reads are unchecked (the engine only
// reads shards after its workers have joined). Ownership moves between
// threads via detach_writer() — EngineObserver::sink() calls it at the
// orchestrator→worker handoff, re-arming the checker for the new writer.
class MetricShard {
 public:
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  // Find-or-create; an existing histogram must have the identical
  // (lo, hi, bins) spec (VOD_CHECK otherwise).
  HistogramMetric* histogram(const std::string& name, double lo, double hi,
                             size_t bins);

  // Read-only lookups; nullptr when absent.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const HistogramMetric* find_histogram(const std::string& name) const;

  // Value of a counter, or 0 when absent (exporter/test convenience).
  uint64_t counter_value(const std::string& name) const;

  // Adds every metric of `other` into this shard: counters and histogram
  // bins add, gauges sum. Deterministic for a fixed merge order.
  void merge_from(const MetricShard& other);

  // Releases the Debug-build writer binding so the next mutating call may
  // come from a different thread. Call only at a quiescent handoff point.
  void detach_writer() { writer_.detach(); }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, HistogramMetric>& histograms() const {
    return histograms_;
  }

 private:
  ThreadChecker writer_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, HistogramMetric> histograms_;
};

// One shard per engine shard / worker lane. prepare() is called once by
// the orchestrating thread before workers start; workers then touch
// disjoint shards only, so no locking is needed anywhere.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  explicit MetricsRegistry(size_t num_shards) { prepare(num_shards); }

  // Grows the shard set to at least `num_shards`. Existing shards (and
  // every handle into them) stay valid. Not thread-safe: call from the
  // orchestrator before handing shards to workers.
  void prepare(size_t num_shards);

  size_t num_shards() const { return shards_.size(); }
  MetricShard& shard(size_t i);
  const MetricShard& shard(size_t i) const;

  // All shards folded in ascending shard order — the deterministic merge
  // the engine's bit-identity contract relies on.
  MetricShard merged() const;

 private:
  std::vector<std::unique_ptr<MetricShard>> shards_;
};

}  // namespace vod::obs
