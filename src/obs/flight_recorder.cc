#include "obs/flight_recorder.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>

#include "obs/qoe.h"
#include "util/check.h"
#include "util/thread_annotations.h"

namespace vod::obs {

FlightRecorder::FlightRecorder(size_t capacity) {
  VOD_CHECK_MSG(capacity >= 1, "a flight recorder needs capacity >= 1");
  ring_.resize(capacity);
  internal::register_flight_recorder(this);
}

FlightRecorder::~FlightRecorder() {
  internal::unregister_flight_recorder(this);
}

void FlightRecorder::record(const ControllerDecision& decision) {
  VOD_DCHECK_SERIAL(writer_);
  ring_[next_] = decision;
  next_ = (next_ + 1) % ring_.size();
  ++recorded_;
}

std::vector<ControllerDecision> FlightRecorder::snapshot() const {
  std::vector<ControllerDecision> out;
  if (recorded_ == 0) return out;
  const size_t retained =
      static_cast<size_t>(std::min<uint64_t>(recorded_, ring_.size()));
  out.reserve(retained);
  const size_t start = (next_ + ring_.size() - retained) % ring_.size();
  for (size_t i = 0; i < retained; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

namespace {

Mutex g_registry_mu;
// Registration order (= construction order on the orchestrator), so dump
// order is deterministic. Plain vectors of pointers, not pointer-keyed
// maps: iteration order is insertion order.
std::vector<const FlightRecorder*>& recorders() VOD_REQUIRES(g_registry_mu) {
  static std::vector<const FlightRecorder*> v;
  return v;
}
std::vector<const QoeShard*>& qoe_shards() VOD_REQUIRES(g_registry_mu) {
  static std::vector<const QoeShard*> v;
  return v;
}

std::string& dump_path() VOD_REQUIRES(g_registry_mu) {
  static std::string p;
  return p;
}
// Atomic, not guarded: the failure handler must read them without taking
// the registry lock (check.h documents the no-locks-on-the-abort-path
// expectation; the dump body itself only try_locks).
std::atomic<CheckFailureHandler> g_previous_handler{nullptr};
std::atomic<bool> g_armed{false};
std::atomic<uint64_t> g_dump_count{0};

// Minimal JSON string escaping for the abort path (export.h's helpers are
// string-building; here we write straight to the FILE* we just opened).
void write_json_string(std::FILE* f, const char* s) {
  (void)std::fputc('"', f);
  for (const char* p = s; *p != '\0'; ++p) {
    const unsigned char c = static_cast<unsigned char>(*p);
    if (c == '"' || c == '\\') {
      (void)std::fprintf(f, "\\%c", c);
    } else if (c < 0x20) {
      (void)std::fprintf(f, "\\u%04x", c);
    } else {
      (void)std::fputc(c, f);
    }
  }
  (void)std::fputc('"', f);
}

void write_decision(std::FILE* f, const ControllerDecision& d) {
  (void)std::fprintf(
      f,
      "{\"kind\":\"decision\",\"slot\":%" PRId64 ",\"video\":%u,"
      "\"estimate\":%.17g,\"band\":%d,\"dwell\":%" PRIu64
      ",\"rung_before\":%d,\"rung_after\":%d,\"overlap_slots\":%" PRId64
      ",\"dwell_blocked\":%s,\"forced\":%s,\"committed\":%s}\n",
      d.slot, d.video, d.estimate, d.band, d.dwell, d.rung_before,
      d.rung_after, d.overlap_slots, d.dwell_blocked ? "true" : "false",
      d.forced ? "true" : "false", d.committed ? "true" : "false");
}

void write_sample(std::FILE* f, const QoeSample& s) {
  (void)std::fprintf(
      f,
      "{\"kind\":\"qoe_sample\",\"request_id\":%" PRIu64 ",\"slot\":%" PRId64
      ",\"wait_slots\":%.17g,\"count\":%" PRIu64
      ",\"late_segments\":%" PRIu64 ",\"segments\":%" PRIu64 "}\n",
      s.request_id, s.slot, s.wait_slots, s.count, s.late_segments,
      s.segments);
}

// The armed VOD_CHECK failure handler. Runs on the failing thread; reads
// other writers' rings without their participation (best-effort, see the
// header comment) and must not itself VOD_CHECK.
void violation_dump_handler(const char* expr, const char* file, int line,
                            const char* msg) {
  const CheckFailureHandler previous = g_previous_handler.load();
  // try_lock, never lock: if the failure raced a registration (or fired
  // under the registry lock) we skip the dump rather than deadlock the
  // abort path — the dump is diagnostics, the failure is the point.
  if (g_registry_mu.try_lock()) {
    std::FILE* f = std::fopen(dump_path().c_str(), "a");
    if (f != nullptr) {
      const uint64_t n = g_dump_count.fetch_add(1) + 1;
      (void)std::fprintf(f, "{\"kind\":\"violation\",\"dump\":%" PRIu64
                            ",\"file\":",
                         n);
      write_json_string(f, file);
      (void)std::fprintf(f, ",\"line\":%d,\"expr\":", line);
      write_json_string(f, expr);
      (void)std::fprintf(f, ",\"msg\":");
      write_json_string(f, msg);
      (void)std::fprintf(f, "}\n");
      for (const FlightRecorder* r : recorders()) {
        for (const ControllerDecision& d : r->snapshot()) {
          write_decision(f, d);
        }
      }
      for (const QoeShard* q : qoe_shards()) {
        for (const QoeSample& s : q->recent_samples()) {
          write_sample(f, s);
        }
      }
      (void)std::fclose(f);
    }
    g_registry_mu.unlock();
  }
  if (previous != nullptr) previous(expr, file, line, msg);
}

}  // namespace

namespace internal {

void register_flight_recorder(const FlightRecorder* recorder) {
  MutexLock lock(g_registry_mu);
  recorders().push_back(recorder);
}

void unregister_flight_recorder(const FlightRecorder* recorder) {
  MutexLock lock(g_registry_mu);
  auto& v = recorders();
  v.erase(std::remove(v.begin(), v.end(), recorder), v.end());
}

void register_qoe_shard(const QoeShard* shard) {
  MutexLock lock(g_registry_mu);
  qoe_shards().push_back(shard);
}

void unregister_qoe_shard(const QoeShard* shard) {
  MutexLock lock(g_registry_mu);
  auto& v = qoe_shards();
  v.erase(std::remove(v.begin(), v.end(), shard), v.end());
}

}  // namespace internal

void arm_violation_dump(const std::string& path) {
  {
    MutexLock lock(g_registry_mu);
    dump_path() = path;
  }
  if (!g_armed.exchange(true)) {
    g_previous_handler.store(
        set_check_failure_handler(&violation_dump_handler));
  }
}

void disarm_violation_dump() {
  if (!g_armed.exchange(false)) return;
  (void)set_check_failure_handler(g_previous_handler.load());
  g_previous_handler.store(nullptr);
}

uint64_t violation_dump_count() { return g_dump_count.load(); }

}  // namespace vod::obs
