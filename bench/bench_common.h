// Shared helpers for the figure/table regeneration binaries.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/dhb_simulator.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/qoe.h"
#include "obs/trace.h"
#include "protocols/stream_tapping.h"

namespace vod::bench {

// The arrival-rate grid of the paper's Figures 7-9 (requests/hour, log-ish).
inline std::vector<double> paper_rates() {
  return {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0};
}

// Simulation lengths chosen so every point has thousands of events but the
// whole sweep stays interactive: long runs at low rates (few arrivals per
// hour), shorter at high rates (plenty of arrivals anyway).
inline SlottedSimConfig slotted_config(double requests_per_hour) {
  SlottedSimConfig sim;
  sim.requests_per_hour = requests_per_hour;
  sim.warmup_hours = 8.0;
  sim.measured_hours = requests_per_hour < 10.0 ? 400.0 : 150.0;
  sim.seed = 20010416;  // ICDCS 2001, Mesa AZ, April 16
  return sim;
}

inline TappingConfig tapping_config(double requests_per_hour,
                                    TappingMode mode) {
  TappingConfig c;
  c.requests_per_hour = requests_per_hour;
  c.warmup_hours = 8.0;
  c.measured_hours = requests_per_hour < 10.0 ? 400.0 : 150.0;
  c.seed = 20010416;
  c.mode = mode;
  return c;
}

inline void print_header(const std::string& title, const std::string& notes) {
  std::printf("== %s ==\n%s\n\n", title.c_str(), notes.c_str());
}

// Optional observability surface of the sweep benches (admission, fig7,
// fig8, fig9 and reactive_landscape): construct with argv, and when the
// user passed --trace-out, --metrics-out, --qoe-out and/or --slo-out an
// ambient ObsSink is installed for the object's lifetime (so simulator
// runs record trace events, snapshot their counters, and account
// client-perceived QoE). Every run of the sweep records into the same
// sink: the metrics add up over the runs, and the QoE is one stream that
// pools them. Call begin_run() before each simulated run so its trace
// events land on a track of its own. A --qoe-out also arms the VOD_CHECK
// violation dump at <qoe-out>.violations for the object's lifetime. Call
// write() once the sweep is done. With no flag the object is inert.
class BenchObservability {
 public:
  // True when `arg` is one of the flags this class consumes; such flags
  // take a value, so positional-argument loops in the bench binaries must
  // skip the flag *and* the argument after it (otherwise "--slo-out x"
  // would be misread as an output-path positional).
  static bool consumes_flag(const char* arg) {
    return std::strcmp(arg, "--trace-out") == 0 ||
           std::strcmp(arg, "--metrics-out") == 0 ||
           std::strcmp(arg, "--qoe-out") == 0 ||
           std::strcmp(arg, "--slo-out") == 0;
  }

  BenchObservability(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--trace-out") == 0) {
        trace_out_ = argv[i + 1];
      } else if (std::strcmp(argv[i], "--metrics-out") == 0) {
        metrics_out_ = argv[i + 1];
      } else if (std::strcmp(argv[i], "--qoe-out") == 0) {
        qoe_out_ = argv[i + 1];
      } else if (std::strcmp(argv[i], "--slo-out") == 0) {
        slo_out_ = argv[i + 1];
      }
    }
    if (enabled()) {
      sink_.metrics = &metrics_;
      sink_.trace = &trace_;
      sink_.qoe = &qoe_;
      sink_.flight = &flight_;
      scoped_.emplace(&sink_);
    }
    if (!qoe_out_.empty()) {
      obs::arm_violation_dump(qoe_out_ + ".violations");
      armed_ = true;
    }
  }

  ~BenchObservability() {
    if (armed_) obs::disarm_violation_dump();
  }

  BenchObservability(const BenchObservability&) = delete;
  BenchObservability& operator=(const BenchObservability&) = delete;

  bool enabled() const {
    return !trace_out_.empty() || !metrics_out_.empty() ||
           !qoe_out_.empty() || !slo_out_.empty();
  }

  // Starts the sweep's next simulated run on its own trace track: run k
  // (from 0) records on track k, so each run's per-slot counter series
  // is its own Chrome series even though every run restarts the slot
  // clock.
  void begin_run() { trace_.set_track(next_track_++); }

  // Writes the requested outputs (metrics as JSONL). Returns false when a
  // file cannot be written.
  bool write() const {
    bool ok = true;
    if (!trace_out_.empty()) {
      ok = obs::write_chrome_trace(trace_out_, {&trace_}) && ok;
    }
    if (!metrics_out_.empty()) {
      ok = obs::write_metrics_jsonl(metrics_out_, metrics_) && ok;
    }
    if (!qoe_out_.empty()) {
      ok = obs::write_qoe_jsonl(qoe_out_, qoe_, {&flight_}) && ok;
    }
    if (!slo_out_.empty()) {
      ok = obs::write_slo_jsonl(slo_out_, qoe_) && ok;
    }
    return ok;
  }

 private:
  obs::MetricShard metrics_;
  obs::TraceBuffer trace_;
  obs::QoeShard qoe_;
  obs::FlightRecorder flight_;
  obs::ObsSink sink_;
  std::optional<obs::ScopedObsSink> scoped_;
  std::string trace_out_;
  std::string metrics_out_;
  std::string qoe_out_;
  std::string slo_out_;
  uint32_t next_track_ = 0;
  bool armed_ = false;
};

// First non-flag argument once the BenchObservability flags (and their
// values) are skipped: the optional CSV output path of the figure
// binaries. Returns nullptr when every argument belongs to a flag.
inline const char* csv_positional(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (BenchObservability::consumes_flag(argv[i])) {
      ++i;  // the flag's value
      continue;
    }
    if (argv[i][0] != '-') return argv[i];
  }
  return nullptr;
}

}  // namespace vod::bench
