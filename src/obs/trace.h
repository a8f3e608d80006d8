// Slot-time trace events: bounded ring buffers, an ambient per-thread sink,
// and the VOD_TRACE_* macros the library's hot paths use.
//
// Clock domains. Simulation *slot time* is the primary clock: an event's
// timestamp is the slot number at which it happened, and the Chrome-trace
// exporter renders one slot as one millisecond so a Perfetto timeline reads
// directly in slots. Wall-clock *profiling spans* (shard kernels, export
// passes) are a separate domain — steady_clock nanoseconds since a
// process-wide epoch — and are exported onto their own process track so the
// two timelines never mix. Slot-domain events are deterministic for a fixed
// seed; wall-domain events are not (and nothing feeds them back into the
// simulation, so results stay bit-identical with tracing on or off).
//
// Recording is sink-based: install an ObsSink (a MetricShard plus a
// TraceBuffer, either optional) for the current thread with ScopedObsSink,
// and every VOD_TRACE_* / VOD_METRIC_* macro below records into it. With no
// sink installed the macros cost one thread-local load and a branch; when
// the library is configured with VOD_OBSERVE=OFF they compile to nothing
// at all (the disabled-instrumentation path the ≤2% overhead budget of
// DESIGN.md §10 refers to).
//
// TraceBuffer is a fixed-capacity ring that keeps the most recent events
// and counts what it dropped — tracing a multi-day simulation is bounded
// by construction, never by luck.
//
// Concurrency contract: a TraceBuffer has one writer at a time and no
// locks (DESIGN.md §11). The sharded engine gives every shard its own
// ring; EngineObserver::sink() re-arms the Debug-build writer check at
// the orchestrator→worker handoff, and the exporters read only after the
// workers have joined.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "util/thread_checker.h"

namespace vod::obs {

enum class TracePhase : uint8_t {
  kComplete,  // Chrome 'X': a span with a duration
  kInstant,   // Chrome 'i': a point event
  kCounter,   // Chrome 'C': a sampled counter track
};

enum class TraceClock : uint8_t {
  kSlot,  // ts = simulation slot number
  kWall,  // ts = steady_clock ns since the process trace epoch
};

// Numeric key/value pair attached to an event. Keys are expected to be
// string literals (the buffer stores the pointer, not a copy).
struct TraceArg {
  const char* key;
  int64_t value;
};

struct TraceEvent {
  static constexpr size_t kMaxArgs = 4;

  const char* name = "";      // string literal; not owned
  const char* category = "";  // string literal; not owned
  TracePhase phase = TracePhase::kInstant;
  TraceClock clock = TraceClock::kSlot;
  int64_t ts = 0;   // slot number or wall ns (see clock)
  int64_t dur = 0;  // wall ns; kComplete only
  uint32_t track = 0;  // rendered as the Chrome tid (engine: shard id)
  uint32_t num_args = 0;
  TraceArg args[kMaxArgs] = {};
};

// Nanoseconds since the process-wide trace epoch (the first call). All
// buffers share the epoch, so wall spans from different shards align.
int64_t wall_now_ns();

class TraceBuffer {
 public:
  explicit TraceBuffer(size_t capacity = size_t{1} << 15);

  void emit(const TraceEvent& event);

  // Number of retained events (<= capacity).
  size_t size() const { return ring_.size(); }
  size_t capacity() const { return capacity_; }
  // Events overwritten because the ring was full.
  uint64_t dropped() const { return dropped_; }
  // Total emitted over the buffer's lifetime (= size() + dropped()).
  uint64_t emitted() const { return emitted_; }

  // Retained events, oldest first.
  std::vector<TraceEvent> snapshot() const;

  // Default track id stamped on events emitted with track 0 via the
  // convenience emitters below; the engine sets it to the shard id.
  void set_track(uint32_t track);
  uint32_t track() const { return track_; }

  // Releases the Debug-build writer binding (see header comment). Call
  // only at a quiescent handoff point.
  void detach_writer() { writer_.detach(); }

 private:
  ThreadChecker writer_;
  size_t capacity_;
  std::vector<TraceEvent> ring_;
  size_t next_ = 0;  // overwrite position once full
  uint64_t dropped_ = 0;
  uint64_t emitted_ = 0;
  uint32_t track_ = 0;
};

class QoeShard;        // obs/qoe.h
class FlightRecorder;  // obs/flight_recorder.h

// Where the macros record. All members optional; a null member simply
// drops that kind of recording. `qoe` and `flight` are written only
// through current_qoe()/current_flight() (obs/qoe.h, obs/flight_recorder.h),
// which are constant nullptr under VOD_OBSERVE=OFF.
struct ObsSink {
  MetricShard* metrics = nullptr;
  TraceBuffer* trace = nullptr;
  QoeShard* qoe = nullptr;
  FlightRecorder* flight = nullptr;
};

// The ambient sink of the current thread; nullptr when none installed.
// The variable lives in trace.cc but the accessor is inline: every macro
// and QoE recording site reduces to one thread-local load plus a branch,
// which *is* the no-sink overhead budget — an out-of-line accessor here
// shows up as a measurable tax on the admission hot path.
extern thread_local ObsSink* t_ambient_sink;
inline ObsSink* current_sink() { return t_ambient_sink; }

// Installs `sink` as the current thread's sink for the scope's lifetime
// and restores the previous one on destruction. The pointed-to sink must
// outlive the scope.
class ScopedObsSink {
 public:
  explicit ScopedObsSink(ObsSink* sink);
  ~ScopedObsSink();

  ScopedObsSink(const ScopedObsSink&) = delete;
  ScopedObsSink& operator=(const ScopedObsSink&) = delete;

 private:
  ObsSink* previous_;
};

// --- macro backends (call through the macros, not directly) --------------

void emit_instant(TraceBuffer* trace, const char* name, const char* category,
                  int64_t slot, std::initializer_list<TraceArg> args);
void emit_counter(TraceBuffer* trace, const char* name, const char* category,
                  int64_t slot, int64_t value);

// RAII wall-clock span: captures the sink at construction, emits one
// kComplete wall-domain event at destruction. Zero work when no sink (or
// no trace buffer) is installed at construction time.
class WallSpan {
 public:
  WallSpan(const char* name, const char* category);
  ~WallSpan();

  WallSpan(const WallSpan&) = delete;
  WallSpan& operator=(const WallSpan&) = delete;

 private:
  TraceBuffer* trace_;
  const char* name_;
  const char* category_;
  int64_t start_ns_ = 0;
};

// Observability state for one run of the sharded multi-video engine: a
// metric shard, a trace ring and a flight recorder per engine shard,
// handed to workers as per-shard ObsSinks. The engine calls prepare()
// before launching workers; each worker installs sink(s) for its shard
// only, so recording is contention-free, and merged_metrics() folds shards
// in ascending shard order — deterministic at any thread count. A sink
// carries no QoE shard: every engine admission starts one slot after its
// arrival and misses no deadline (DESIGN.md §15), so the engine records
// no QoE.
class EngineObserver {
 public:
  struct Options {
    size_t trace_capacity_per_shard = size_t{1} << 15;
    size_t flight_capacity_per_shard = 128;
  };

  EngineObserver();
  explicit EngineObserver(Options options);
  ~EngineObserver();

  // Grows to at least `num_shards` shards; existing shards stay valid.
  // Orchestrator-only (not thread-safe).
  void prepare(size_t num_shards);

  size_t num_shards() const { return traces_.size(); }
  ObsSink sink(size_t shard);

  // Every shard's trace ring, ascending shard order (exporter input).
  std::vector<const TraceBuffer*> trace_buffers() const;
  MetricShard merged_metrics() const { return registry_.merged(); }
  // An empty QoE shard, for callers that export the engine's QoE and SLO
  // files alongside its other outputs.
  std::unique_ptr<QoeShard> merged_qoe() const;
  // Every shard's flight recorder, ascending shard order.
  std::vector<const FlightRecorder*> flight_recorders() const;

 private:
  Options options_;
  MetricsRegistry registry_;
  std::vector<std::unique_ptr<TraceBuffer>> traces_;
  std::vector<std::unique_ptr<FlightRecorder>> flights_;
};

}  // namespace vod::obs

// --- the instrumentation macros ------------------------------------------
//
// VOD_TRACE_INSTANT(name, category, slot, {"key", value}...) — slot-domain
//   point event with up to TraceEvent::kMaxArgs numeric args.
// VOD_TRACE_COUNTER(name, category, slot, value) — slot-domain counter
//   sample (a Chrome counter track, e.g. per-slot streams).
// VOD_TRACE_WALL_SPAN(name, category) — wall-domain span covering the rest
//   of the enclosing scope.
// VOD_METRIC_INC(name, n) — bumps a counter in the ambient sink's shard.
//
// All compile to nothing when the build disables VOD_OBSERVE.

#ifndef VOD_OBSERVE_DISABLED

#define VOD_OBS_CONCAT_INNER(a, b) a##b
#define VOD_OBS_CONCAT(a, b) VOD_OBS_CONCAT_INNER(a, b)

#define VOD_TRACE_INSTANT(name, category, slot, ...)                        \
  do {                                                                      \
    if (::vod::obs::ObsSink* vod_obs_sink_ = ::vod::obs::current_sink()) {  \
      if (vod_obs_sink_->trace != nullptr) {                                \
        ::vod::obs::emit_instant(vod_obs_sink_->trace, (name), (category),  \
                                 static_cast<int64_t>(slot), {__VA_ARGS__}); \
      }                                                                     \
    }                                                                       \
  } while (0)

#define VOD_TRACE_COUNTER(name, category, slot, value)                      \
  do {                                                                      \
    if (::vod::obs::ObsSink* vod_obs_sink_ = ::vod::obs::current_sink()) {  \
      if (vod_obs_sink_->trace != nullptr) {                                \
        ::vod::obs::emit_counter(vod_obs_sink_->trace, (name), (category),  \
                                 static_cast<int64_t>(slot),                \
                                 static_cast<int64_t>(value));              \
      }                                                                     \
    }                                                                       \
  } while (0)

#define VOD_TRACE_WALL_SPAN(name, category) \
  ::vod::obs::WallSpan VOD_OBS_CONCAT(vod_obs_span_, __LINE__){(name), (category)}

#define VOD_METRIC_INC(name, n)                                             \
  do {                                                                      \
    if (::vod::obs::ObsSink* vod_obs_sink_ = ::vod::obs::current_sink()) {  \
      if (vod_obs_sink_->metrics != nullptr) {                              \
        vod_obs_sink_->metrics->counter(name)->inc(                         \
            static_cast<uint64_t>(n));                                      \
      }                                                                     \
    }                                                                       \
  } while (0)

#else  // VOD_OBSERVE_DISABLED

#define VOD_TRACE_INSTANT(name, category, slot, ...) ((void)0)
#define VOD_TRACE_COUNTER(name, category, slot, value) ((void)0)
#define VOD_TRACE_WALL_SPAN(name, category) ((void)0)
#define VOD_METRIC_INC(name, n) ((void)0)

#endif  // VOD_OBSERVE_DISABLED
