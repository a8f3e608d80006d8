// Exporters for the instrumentation layer.
//
// Two formats, each with a string builder (unit-testable) and a file
// writer:
//   * Chrome trace-event JSON — loadable in chrome://tracing and Perfetto.
//     Slot-domain events land on pid 1 ("slot time", 1 slot rendered as
//     1 ms so the timeline reads in slots); wall-domain profiling spans
//     land on pid 2 ("wall clock", real microseconds). The tid is the
//     event's track (the engine stamps shard ids).
//   * JSONL — one self-describing JSON object per line:
//     - metric snapshots, one object per metric; the one metrics format,
//       which perfbench and downstream notebooks read;
//     - QoE / SLO — one "qoe" object per (video, rung) group (wait
//       histogram with per-bucket exemplars, continuity counters) and one
//       "slo" object per group and objective (budget, lifetime verdict,
//       burn-rate window stats); scripts/qoe_report.py renders them.
#pragma once

#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/qoe.h"
#include "obs/trace.h"

namespace vod::obs {

// Chrome trace-event JSON for the given buffers (e.g. one per engine
// shard), events merged in buffer order.
std::string chrome_trace_json(const std::vector<const TraceBuffer*>& buffers);

// JSONL snapshot of one (merged) shard.
std::string metrics_jsonl(const MetricShard& metrics);

// QoE JSONL: one {"kind":"qoe"} line per (video, rung) group of the
// (merged) shard, in key order.
std::string qoe_jsonl(const QoeShard& qoe);

// SLO JSONL: two {"kind":"slo"} lines (objectives "startup_wait" and
// "continuity") per (video, rung) group, in key order, plus one per-rung
// rollup pair with video omitted.
std::string slo_jsonl(const QoeShard& qoe);

// Flight-recorder JSONL: one {"kind":"decision"} line per retained
// decision, recorders in the given order.
std::string decisions_jsonl(const std::vector<const FlightRecorder*>& flights);

// File writers for the above; false (with a stderr note) when the path
// cannot be opened.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const TraceBuffer*>& buffers);
bool write_metrics_jsonl(const std::string& path, const MetricShard& metrics);
bool write_qoe_jsonl(const std::string& path, const QoeShard& qoe);
// Same file with the flight-recorder decisions appended, so one JSONL
// carries the full QoE story: per-group accounting plus the controller
// decisions that produced the rung assignments.
bool write_qoe_jsonl(const std::string& path, const QoeShard& qoe,
                     const std::vector<const FlightRecorder*>& flights);
bool write_slo_jsonl(const std::string& path, const QoeShard& qoe);

}  // namespace vod::obs
