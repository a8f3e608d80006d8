#include "obs/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace vod::obs {
namespace {

// Chrome's trace viewer expects microsecond timestamps. One slot renders
// as one millisecond so a Perfetto timeline reads directly in slots.
constexpr int64_t kUsPerSlot = 1000;
constexpr int kSlotPid = 1;
constexpr int kWallPid = 2;

void append_json_string(std::string* out, const char* s) {
  out->push_back('"');
  for (const char* p = s; *p != '\0'; ++p) {
    const char c = *p;
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) out->append(buf, std::min<size_t>(static_cast<size_t>(n),
                                               sizeof(buf) - 1));
}

void append_event(std::string* out, const TraceEvent& e, bool* first) {
  if (!*first) *out += ",\n";
  *first = false;
  *out += "  {\"name\":";
  append_json_string(out, e.name);
  *out += ",\"cat\":";
  append_json_string(out, e.category[0] != '\0' ? e.category : "vod");
  const bool wall = e.clock == TraceClock::kWall;
  const char* ph = e.phase == TracePhase::kComplete ? "X"
                   : e.phase == TracePhase::kCounter ? "C"
                                                     : "i";
  appendf(out, ",\"ph\":\"%s\"", ph);
  if (wall) {
    appendf(out, ",\"ts\":%.3f", static_cast<double>(e.ts) / 1000.0);
    if (e.phase == TracePhase::kComplete) {
      appendf(out, ",\"dur\":%.3f", static_cast<double>(e.dur) / 1000.0);
    }
  } else {
    appendf(out, ",\"ts\":%" PRId64, e.ts * kUsPerSlot);
    if (e.phase == TracePhase::kComplete) {
      appendf(out, ",\"dur\":%" PRId64, e.dur * kUsPerSlot);
    }
  }
  appendf(out, ",\"pid\":%d,\"tid\":%u", wall ? kWallPid : kSlotPid, e.track);
  if (e.phase == TracePhase::kInstant) *out += ",\"s\":\"t\"";
  if (e.num_args > 0) {
    *out += ",\"args\":{";
    for (uint32_t i = 0; i < e.num_args; ++i) {
      if (i > 0) *out += ",";
      append_json_string(out, e.args[i].key);
      appendf(out, ":%" PRId64, e.args[i].value);
    }
    *out += "}";
  }
  *out += "}";
}

void append_process_metadata(std::string* out, int pid, const char* name,
                             bool* first) {
  if (!*first) *out += ",\n";
  *first = false;
  appendf(out, "  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,", pid);
  *out += "\"args\":{\"name\":";
  append_json_string(out, name);
  *out += "}}";
}

bool write_string(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot write %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  return ok;
}

}  // namespace

std::string chrome_trace_json(
    const std::vector<const TraceBuffer*>& buffers) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  append_process_metadata(&out, kSlotPid, "slot time (1 slot = 1 ms)", &first);
  append_process_metadata(&out, kWallPid, "wall clock", &first);
  uint64_t dropped = 0;
  for (const TraceBuffer* buffer : buffers) {
    if (buffer == nullptr) continue;
    dropped += buffer->dropped();
    for (const TraceEvent& e : buffer->snapshot()) {
      append_event(&out, e, &first);
    }
  }
  out += "\n],\n\"displayTimeUnit\":\"ms\",\n";
  appendf(&out, "\"otherData\":{\"droppedEvents\":\"%" PRIu64 "\"}}\n",
          dropped);
  return out;
}

std::string metrics_jsonl(const MetricShard& metrics) {
  std::string out;
  for (const auto& [name, counter] : metrics.counters()) {
    out += "{\"kind\":\"counter\",\"name\":";
    append_json_string(&out, name.c_str());
    appendf(&out, ",\"value\":%" PRIu64 "}\n", counter.value());
  }
  for (const auto& [name, gauge] : metrics.gauges()) {
    out += "{\"kind\":\"gauge\",\"name\":";
    append_json_string(&out, name.c_str());
    appendf(&out, ",\"value\":%.10g}\n", gauge.value());
  }
  for (const auto& [name, hist] : metrics.histograms()) {
    out += "{\"kind\":\"histogram\",\"name\":";
    append_json_string(&out, name.c_str());
    const Histogram& h = hist.histogram();
    appendf(&out, ",\"count\":%" PRIu64 ",\"sum\":%.10g,\"lo\":%.10g,"
                  "\"bin_width\":%.10g,\"bins\":[",
            hist.count(), hist.sum(), h.lo(), h.bin_width());
    for (size_t i = 0; i < h.bins().size(); ++i) {
      appendf(&out, "%s%" PRIu64, i > 0 ? "," : "", h.bins()[i]);
    }
    out += "]}\n";
  }
  return out;
}

namespace {

void append_qoe_key(std::string* out, const QoeKey& key, bool with_video) {
  if (with_video) appendf(out, "\"video\":%u,", key.video);
  appendf(out, "\"rung\":%d,\"rung_name\":", key.rung);
  append_json_string(out, qoe_rung_label(key.rung).c_str());
}

void append_slo_line(std::string* out, const char* scope, const QoeKey& key,
                     bool with_video, const char* objective, double target,
                     const SloTracker& slo) {
  appendf(out, "{\"kind\":\"slo\",\"scope\":\"%s\",", scope);
  append_qoe_key(out, key, with_video);
  appendf(out, ",\"objective\":\"%s\",\"target\":%.10g,\"budget\":%.10g,",
          objective, target, slo.config().error_budget);
  appendf(out, "\"total\":%" PRIu64 ",\"bad\":%" PRIu64
               ",\"bad_fraction\":%.10g,\"met\":%s,",
          slo.total(), slo.bad(), slo.bad_fraction(),
          slo.met() ? "true" : "false");
  appendf(out, "\"fast_window_slots\":%" PRId64 ",\"fast_windows\":%" PRIu64
               ",\"fast_breached\":%" PRIu64 ",\"fast_max_burn\":%.10g,",
          slo.config().fast_window_slots, slo.fast().windows,
          slo.fast().breached, slo.fast().max_burn);
  appendf(out, "\"slow_window_slots\":%" PRId64 ",\"slow_windows\":%" PRIu64
               ",\"slow_breached\":%" PRIu64 ",\"slow_max_burn\":%.10g,",
          slo.config().slow_window_slots, slo.slow().windows,
          slo.slow().breached, slo.slow().max_burn);
  appendf(out, "\"alerts\":%" PRIu64 "}\n", slo.alerts());
}

void append_group_slo_lines(std::string* out, const char* scope,
                            const QoeKey& key, bool with_video,
                            const QoeOptions& opt, const SloTracker& wait,
                            const SloTracker& continuity) {
  append_slo_line(out, scope, key, with_video, "startup_wait",
                  opt.wait_objective_slots, wait);
  append_slo_line(out, scope, key, with_video, "continuity",
                  1.0 - continuity.config().error_budget, continuity);
}

}  // namespace

std::string qoe_jsonl(const QoeShard& qoe) {
  std::string out;
  for (const auto& [key, g] : qoe.groups()) {
    out += "{\"kind\":\"qoe\",";
    append_qoe_key(&out, key, /*with_video=*/true);
    appendf(&out, ",\"admissions\":%" PRIu64 ",\"requests\":%" PRIu64
                  ",\"segments\":%" PRIu64 ",\"late_segments\":%" PRIu64
                  ",\"continuity\":%.10g,",
            g.admissions, g.requests, g.segments, g.late_segments,
            g.continuity());
    const Histogram& h = g.wait.histogram();
    appendf(&out, "\"wait_p50\":%.10g,\"wait_p99\":%.10g,\"wait_count\":%"
                  PRIu64 ",\"wait_sum\":%.10g,\"wait_lo\":%.10g,"
                  "\"wait_bin_width\":%.10g,\"wait_bins\":[",
            g.wait.quantile(0.50), g.wait.quantile(0.99), g.wait.count(),
            g.wait.sum(), h.lo(), h.bin_width());
    for (size_t i = 0; i < h.bins().size(); ++i) {
      appendf(&out, "%s%" PRIu64, i > 0 ? "," : "", h.bins()[i]);
    }
    out += "],\"exemplars\":[";
    bool first = true;
    for (size_t i = 0; i < h.bins().size(); ++i) {
      if (h.bins()[i] == 0) continue;
      const QoeExemplar& e = g.wait.exemplars()[i];
      appendf(&out, "%s{\"bucket\":%zu,\"request_id\":%" PRIu64
                    ",\"slot\":%" PRId64 ",\"value\":%.10g}",
              first ? "" : ",", i, e.request_id, e.slot, e.value);
      first = false;
    }
    out += "]}\n";
  }
  return out;
}

std::string slo_jsonl(const QoeShard& qoe) {
  std::string out;
  const QoeOptions& opt = qoe.options();
  for (const auto& [key, g] : qoe.groups()) {
    append_group_slo_lines(&out, "group", key, /*with_video=*/true, opt,
                           g.wait_slo, g.continuity_slo);
  }
  // Per-rung rollups: fold every video's trackers on that rung, ascending
  // rung order (same schema as group lines, video omitted).
  std::map<int32_t, std::pair<SloTracker, SloTracker>> rungs;
  for (const auto& [key, g] : qoe.groups()) {
    auto it = rungs.find(key.rung);
    if (it == rungs.end()) {
      it = rungs.emplace(key.rung,
                         std::make_pair(SloTracker(opt.wait_slo),
                                        SloTracker(opt.continuity_slo)))
               .first;
    }
    it->second.first.merge_from(g.wait_slo);
    it->second.second.merge_from(g.continuity_slo);
  }
  for (const auto& [rung, trackers] : rungs) {
    const QoeKey key{0, rung};
    append_group_slo_lines(&out, "rung", key, /*with_video=*/false, opt,
                           trackers.first, trackers.second);
  }
  return out;
}

std::string decisions_jsonl(
    const std::vector<const FlightRecorder*>& flights) {
  std::string out;
  for (const FlightRecorder* f : flights) {
    if (f == nullptr) continue;
    for (const ControllerDecision& d : f->snapshot()) {
      appendf(&out, "{\"kind\":\"decision\",\"slot\":%" PRId64
                    ",\"video\":%u,\"estimate\":%.10g,\"band\":%d,",
              d.slot, d.video, d.estimate, d.band);
      appendf(&out, "\"dwell\":%" PRIu64 ",\"rung_before\":%d,"
                    "\"rung_after\":%d,\"overlap_slots\":%" PRId64 ",",
              d.dwell, d.rung_before, d.rung_after, d.overlap_slots);
      appendf(&out, "\"dwell_blocked\":%s,\"forced\":%s,\"committed\":%s}\n",
              d.dwell_blocked ? "true" : "false",
              d.forced ? "true" : "false", d.committed ? "true" : "false");
    }
  }
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const TraceBuffer*>& buffers) {
  return write_string(path, chrome_trace_json(buffers));
}

bool write_metrics_jsonl(const std::string& path,
                         const MetricShard& metrics) {
  return write_string(path, metrics_jsonl(metrics));
}

bool write_qoe_jsonl(const std::string& path, const QoeShard& qoe) {
  return write_string(path, qoe_jsonl(qoe));
}

bool write_qoe_jsonl(const std::string& path, const QoeShard& qoe,
                     const std::vector<const FlightRecorder*>& flights) {
  return write_string(path, qoe_jsonl(qoe) + decisions_jsonl(flights));
}

bool write_slo_jsonl(const std::string& path, const QoeShard& qoe) {
  return write_string(path, slo_jsonl(qoe));
}

}  // namespace vod::obs
