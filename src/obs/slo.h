// SLO burn-rate tracking over deterministic slot-time sample streams.
//
// An SloTracker scores a stream of (slot, total, bad) observations against
// an error budget — the allowed bad fraction, e.g. 0.01 for "p99 startup
// wait <= W slots" (at most 1% of requests may wait longer than W) or
// 0.001 for "continuity >= 99.9%" (at most 0.1% of segments late). On top
// of the lifetime verdict it keeps the SRE-style multi-window burn-rate
// view: two tumbling windows in *slot time* (a fast one for spikes, a slow
// one for sustained regressions), where a window's burn rate is
//
//   burn = (bad / total) / error_budget
//
// so burn 1.0 means the budget is being consumed exactly as fast as it
// accrues and burn >= 1.0 in the fast window *while* the slow window is
// also hot counts as an alert. Windows are closed lazily as
// sample slots cross window boundaries — no wall clock, no timers — so for
// a fixed seed every count below is bit-identical at any thread count.
//
// Concurrency contract: single writer, like the QoeShard that owns it
// (the enclosing QoeShard asserts the discipline). A tracker scores one
// stream.
#pragma once

#include <cstdint>

namespace vod::obs {

class SloTracker {
 public:
  // Tumbling windows in slots, and the burn at which a window breaches
  // (and, fast and slow together, alerts).
  static constexpr int64_t kFastWindowSlots = 64;
  static constexpr int64_t kSlowWindowSlots = 512;
  static constexpr double kAlertBurn = 1.0;

  struct WindowStats {
    uint64_t windows = 0;   // closed windows (skipped empty ones included)
    uint64_t breached = 0;  // closed with burn >= kAlertBurn
    double max_burn = 0.0;  // over all closed windows
  };

  // `error_budget` is the allowed bad fraction, in (0, 1].
  explicit SloTracker(double error_budget);

  // Scores `total` samples at `slot`, `bad` of which violated the
  // objective. A slot in a later window closes the open one (and counts
  // the skipped windows as clean); a slot in an earlier window, as when
  // a sweep's next run restarts the slot clock, closes the open one too
  // and opens that window afresh.
  void record(int64_t slot, uint64_t total, uint64_t bad);

  double error_budget() const { return error_budget_; }
  uint64_t total() const { return total_; }
  uint64_t bad() const { return bad_; }
  double bad_fraction() const;
  // Lifetime verdict: bad fraction within the error budget.
  bool met() const { return bad_fraction() <= error_budget_; }

  const WindowStats& fast() const { return fast_.stats; }
  const WindowStats& slow() const { return slow_.stats; }
  // Fast-window closes with burn >= kAlertBurn while the slow window
  // (closed-or-open at that moment) was also at or past kAlertBurn.
  uint64_t alerts() const { return alerts_; }

 private:
  struct Window {
    int64_t width = 1;
    bool started = false;
    int64_t index = 0;  // current tumbling-window index = slot / width
    uint64_t total = 0;
    uint64_t bad = 0;
    WindowStats stats;
  };

  double burn_of(uint64_t total, uint64_t bad) const;
  void advance(Window& w, int64_t slot, bool is_fast);
  void close(Window& w, bool is_fast);

  double error_budget_;
  uint64_t total_ = 0;
  uint64_t bad_ = 0;
  uint64_t alerts_ = 0;
  Window fast_;
  Window slow_;
};

}  // namespace vod::obs
