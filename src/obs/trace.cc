#include "obs/trace.h"

#include <algorithm>
#include <chrono>

#include "obs/flight_recorder.h"
#include "obs/qoe.h"
#include "util/check.h"

namespace vod::obs {

namespace {

// THE wall-clock exception (DESIGN.md §10/§11). process_epoch() and
// wall_now_ns() are the library's only sanctioned wall-clock reads: they
// feed the kWall trace track — profiling spans on their own exporter
// timeline — and nothing else. Wall time never reaches a slot-time result;
// the determinism linter (scripts/lint_determinism.py) bans these reads
// everywhere and allowlists exactly this file
// (scripts/determinism_allowlist.txt). Do not add wall-clock reads
// elsewhere; widen the allowlist only with a DESIGN.md §11 justification.
std::chrono::steady_clock::time_point process_epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

// Defined here, read inline through current_sink() (trace.h).
thread_local ObsSink* t_ambient_sink = nullptr;

int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - process_epoch())
      .count();
}

TraceBuffer::TraceBuffer(size_t capacity) : capacity_(capacity) {
  VOD_CHECK_MSG(capacity >= 1, "trace buffer needs capacity >= 1");
  ring_.reserve(std::min<size_t>(capacity, 4096));
}

void TraceBuffer::set_track(uint32_t track) {
  VOD_DCHECK_SERIAL(writer_);
  track_ = track;
}

void TraceBuffer::emit(const TraceEvent& event) {
  VOD_DCHECK_SERIAL(writer_);
  ++emitted_;
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
    return;
  }
  // Full: keep the most recent `capacity_` events, oldest overwritten.
  ring_[next_] = event;
  next_ = (next_ + 1) % capacity_;
  ++dropped_;
}

std::vector<TraceEvent> TraceBuffer::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // next_ is the oldest retained event once the ring has wrapped.
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

ScopedObsSink::ScopedObsSink(ObsSink* sink) : previous_(t_ambient_sink) {
  t_ambient_sink = sink;
}

ScopedObsSink::~ScopedObsSink() { t_ambient_sink = previous_; }

void emit_instant(TraceBuffer* trace, const char* name, const char* category,
                  int64_t slot, std::initializer_list<TraceArg> args) {
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.phase = TracePhase::kInstant;
  e.clock = TraceClock::kSlot;
  e.ts = slot;
  e.track = trace->track();
  for (const TraceArg& a : args) {
    if (e.num_args == TraceEvent::kMaxArgs) break;
    e.args[e.num_args++] = a;
  }
  trace->emit(e);
}

void emit_counter(TraceBuffer* trace, const char* name, const char* category,
                  int64_t slot, int64_t value) {
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.phase = TracePhase::kCounter;
  e.clock = TraceClock::kSlot;
  e.ts = slot;
  e.track = trace->track();
  e.num_args = 1;
  e.args[0] = TraceArg{"value", value};
  trace->emit(e);
}

WallSpan::WallSpan(const char* name, const char* category)
    : trace_(nullptr), name_(name), category_(category) {
  if (ObsSink* sink = current_sink()) {
    if (sink->trace != nullptr) {
      trace_ = sink->trace;
      start_ns_ = wall_now_ns();
    }
  }
}

WallSpan::~WallSpan() {
  if (trace_ == nullptr) return;
  TraceEvent e;
  e.name = name_;
  e.category = category_;
  e.phase = TracePhase::kComplete;
  e.clock = TraceClock::kWall;
  e.ts = start_ns_;
  e.dur = wall_now_ns() - start_ns_;
  e.track = trace_->track();
  trace_->emit(e);
}

EngineObserver::EngineObserver() = default;
EngineObserver::~EngineObserver() = default;

void EngineObserver::prepare(size_t num_shards) {
  while (traces_.size() < num_shards) {
    metrics_.push_back(std::make_unique<MetricShard>());
    traces_.push_back(std::make_unique<TraceBuffer>());
    flights_.push_back(std::make_unique<FlightRecorder>());
  }
}

ObsSink EngineObserver::sink(size_t shard) {
  VOD_CHECK_MSG(shard < traces_.size(),
                "EngineObserver::prepare() must cover every shard");
  // Ownership handoff: the caller (the worker about to run this shard)
  // becomes the shard's sole writer. Safe to detach here — sink() is only
  // called when no other thread touches the shard (the previous run's
  // workers joined before this run's started).
  metrics_[shard]->detach_writer();
  traces_[shard]->detach_writer();
  flights_[shard]->detach_writer();
  return ObsSink{metrics_[shard].get(), traces_[shard].get(), nullptr,
                 flights_[shard].get()};
}

MetricShard EngineObserver::merged_metrics() const {
  MetricShard out;
  for (const auto& m : metrics_) out.merge_from(*m);
  return out;
}

std::vector<const TraceBuffer*> EngineObserver::trace_buffers() const {
  std::vector<const TraceBuffer*> out;
  out.reserve(traces_.size());
  for (const auto& t : traces_) out.push_back(t.get());
  return out;
}

std::unique_ptr<QoeShard> EngineObserver::merged_qoe() const {
  return std::make_unique<QoeShard>();
}

std::vector<const FlightRecorder*> EngineObserver::flight_recorders() const {
  std::vector<const FlightRecorder*> out;
  out.reserve(flights_.size());
  for (const auto& f : flights_) out.push_back(f.get());
  return out;
}

}  // namespace vod::obs
