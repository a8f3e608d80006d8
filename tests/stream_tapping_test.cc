#include "protocols/stream_tapping.h"

#include <gtest/gtest.h>

#include <cmath>

#include "obs/qoe.h"
#include "obs/trace.h"
#include "protocols/harmonic.h"
#include "protocols/patching.h"

namespace vod {
namespace {

TappingConfig quick(double rate, TappingMode mode) {
  TappingConfig c;
  c.requests_per_hour = rate;
  c.warmup_hours = 4.0;
  c.measured_hours = 100.0;
  c.mode = mode;
  return c;
}

TEST(StreamTapping, RecordsNoQoe) {
  // Every mode serves a client's own stream from its arrival instant: no
  // startup wait and no late segment to record, in the threshold pilots
  // or the run itself.
  obs::QoeShard qoe;
  obs::ObsSink sink{nullptr, nullptr, &qoe, nullptr};
  obs::ScopedObsSink scoped(&sink);
  for (TappingMode mode : {TappingMode::kPatching, TappingMode::kStreamTapping,
                           TappingMode::kIdealMerging}) {
    TappingConfig c = quick(20.0, mode);
    c.measured_hours = 10.0;
    EXPECT_GT(run_tapping_simulation(c).requests, 0u);
  }
  EXPECT_EQ(qoe.total_requests(), 0u);
}

TEST(StreamTapping, FirstRequestStartsOriginal) {
  TappingConfig c = quick(1.0, TappingMode::kStreamTapping);
  c.restart_threshold_s = 3600.0;
  ScriptedArrivals arrivals({100.0});
  c.warmup_hours = 0.0;
  c.measured_hours = 4.0;
  const TappingResult r = run_tapping_simulation(c, arrivals);
  EXPECT_EQ(r.requests, 1u);
  EXPECT_EQ(r.originals, 1u);
  // One full-video stream over a 4 h window: 7200/14400 = 0.5 streams.
  EXPECT_NEAR(r.avg_streams, 0.5, 1e-6);
  EXPECT_DOUBLE_EQ(r.max_streams, 1.0);
}

TEST(StreamTapping, CloseFollowerPaysOnlyTheGap) {
  TappingConfig c = quick(1.0, TappingMode::kStreamTapping);
  c.restart_threshold_s = 3600.0;
  c.warmup_hours = 0.0;
  c.measured_hours = 5.0;
  ScriptedArrivals arrivals({100.0, 400.0});
  const TappingResult r = run_tapping_simulation(c, arrivals);
  EXPECT_EQ(r.originals, 1u);
  // Total transmitted: D + 300 seconds of patch.
  EXPECT_NEAR(r.avg_streams * 5.0 * 3600.0, 7200.0 + 300.0, 1.0);
  EXPECT_DOUBLE_EQ(r.max_streams, 2.0);
}

TEST(StreamTapping, ExtraTappingBeatsPatching) {
  for (double rate : {2.0, 10.0, 100.0}) {
    TappingConfig st = quick(rate, TappingMode::kStreamTapping);
    TappingConfig pa = quick(rate, TappingMode::kPatching);
    st.restart_threshold_s = pa.restart_threshold_s = 1800.0;
    const TappingResult r_st = run_tapping_simulation(st);
    const TappingResult r_pa = run_tapping_simulation(pa);
    EXPECT_LT(r_st.avg_streams, r_pa.avg_streams) << rate << "/h";
  }
}

TEST(StreamTapping, ThirdClientTapsLevel1Patch) {
  // Client 2 is a first-level patch [0, 300) admitted at 400. Client 3
  // (t=600, prefix 500) taps the original for (500, D) and patch 2 for its
  // still-to-come content (200, 300); it pays [0,200) u [300,500) = 400 s
  // instead of patching's full 500 s prefix.
  TappingConfig c = quick(1.0, TappingMode::kStreamTapping);
  c.restart_threshold_s = 3600.0;
  c.warmup_hours = 0.0;
  c.measured_hours = 5.0;
  ScriptedArrivals arrivals({100.0, 400.0, 600.0});
  const TappingResult r = run_tapping_simulation(c, arrivals);
  EXPECT_NEAR(r.avg_streams * 5.0 * 3600.0, 7200.0 + 300.0 + 400.0, 1.0);
}

TEST(StreamTapping, PatchingClientPaysFullPrefix) {
  // Same arrivals under plain patching: client 3 pays its whole 500 s
  // prefix because it may only tap the original.
  TappingConfig c = quick(1.0, TappingMode::kPatching);
  c.restart_threshold_s = 3600.0;
  c.warmup_hours = 0.0;
  c.measured_hours = 5.0;
  ScriptedArrivals arrivals({100.0, 400.0, 600.0});
  const TappingResult r = run_tapping_simulation(c, arrivals);
  EXPECT_NEAR(r.avg_streams * 5.0 * 3600.0, 7200.0 + 300.0 + 500.0, 1.0);
}

TEST(StreamTapping, RestartAfterThreshold) {
  TappingConfig c = quick(1.0, TappingMode::kStreamTapping);
  c.restart_threshold_s = 1000.0;
  c.warmup_hours = 0.0;
  c.measured_hours = 5.0;
  // Second arrival 1500 s after the first: its prefix exceeds the
  // threshold, so it becomes a fresh original.
  ScriptedArrivals arrivals({100.0, 1600.0});
  const TappingResult r = run_tapping_simulation(c, arrivals);
  EXPECT_EQ(r.originals, 2u);
}

TEST(StreamTapping, BandwidthGrowsWithRate) {
  double prev = 0.0;
  for (double rate : {1.0, 4.0, 16.0, 64.0}) {
    TappingConfig c = quick(rate, TappingMode::kStreamTapping);
    c.restart_threshold_s = -1.0;  // auto-optimize
    const TappingResult r = run_tapping_simulation(c);
    EXPECT_GT(r.avg_streams, prev) << rate;
    prev = r.avg_streams;
  }
}

TEST(StreamTapping, SquareRootClassGrowth) {
  // Stream tapping keeps patching's square-root growth (it is NOT a
  // log-class merging protocol): quadrupling the rate should roughly
  // double the bandwidth at high load.
  TappingConfig a = quick(100.0, TappingMode::kStreamTapping);
  TappingConfig b = quick(400.0, TappingMode::kStreamTapping);
  const TappingResult ra = run_tapping_simulation(a);
  const TappingResult rb = run_tapping_simulation(b);
  const double ratio = rb.avg_streams / ra.avg_streams;
  EXPECT_GT(ratio, 1.6);
  EXPECT_LT(ratio, 2.4);
}

TEST(IdealMerging, TracksEvzLowerBound) {
  // The fragment-tapping idealization approaches the Eager-Vernon-Zahorjan
  // bound ln(1 + lambda D) — the level HMSM-class protocols play at (§2).
  for (double rate : {10.0, 100.0}) {
    TappingConfig c = quick(rate, TappingMode::kIdealMerging);
    c.restart_threshold_s = 7200.0;
    const TappingResult r = run_tapping_simulation(c);
    const double bound = evz_lower_bound(rate / 3600.0, 7200.0);
    EXPECT_GT(r.avg_streams, bound * 0.95) << rate;
    EXPECT_LT(r.avg_streams, bound * 1.35) << rate;
  }
}

TEST(IdealMerging, BeatsStreamTappingEverywhere) {
  for (double rate : {5.0, 50.0}) {
    TappingConfig im = quick(rate, TappingMode::kIdealMerging);
    TappingConfig st = quick(rate, TappingMode::kStreamTapping);
    im.restart_threshold_s = st.restart_threshold_s = 3600.0;
    EXPECT_LT(run_tapping_simulation(im).avg_streams,
              run_tapping_simulation(st).avg_streams)
        << rate;
  }
}

TEST(StreamTapping, OptimizerPicksReasonableThreshold) {
  TappingConfig c = quick(10.0, TappingMode::kStreamTapping);
  const double theta = optimize_restart_threshold(c);
  EXPECT_GT(theta, 0.0);
  EXPECT_LE(theta, 7200.0);
  // The optimized run must not be worse than the never-restart policy.
  TappingConfig never = c;
  never.restart_threshold_s = 7200.0;
  c.restart_threshold_s = theta;
  EXPECT_LE(run_tapping_simulation(c).avg_streams,
            run_tapping_simulation(never).avg_streams * 1.05);
}

// --- Mid-stream-join boundary pins -----------------------------------------
// The joins below land exactly ON a protocol boundary (video end, patch
// expiry, restart threshold, stream handoff). Each tie has one correct
// reading — these tests pin it so a refactor flipping a >= cannot silently
// hand a client a stream that already finished.

TEST(StreamTapping, JoinExactlyAtVideoEndRestarts) {
  // The original admitted at 100 transmits its last content second over
  // [7299, 7300); a client joining at exactly 100 + D = 7300 can tap
  // nothing and must restart, not build a "patch" spanning the whole video.
  TappingConfig c = quick(1.0, TappingMode::kStreamTapping);
  c.restart_threshold_s = 7000.0;
  c.warmup_hours = 0.0;
  c.measured_hours = 5.0;
  ScriptedArrivals arrivals({100.0, 7300.0});
  const TappingResult r = run_tapping_simulation(c, arrivals);
  EXPECT_EQ(r.originals, 2u);
  EXPECT_NEAR(r.avg_streams * 5.0 * 3600.0, 2.0 * 7200.0, 1.0);
}

TEST(StreamTapping, JoinExactlyAtRestartThresholdRestarts) {
  // cost == theta is the indifference point; the protocol restarts there
  // (>=, matching the closed-form renewal cycle that opens WITH the
  // threshold-crossing arrival).
  TappingConfig c = quick(1.0, TappingMode::kPatching);
  c.restart_threshold_s = 1000.0;
  c.warmup_hours = 0.0;
  c.measured_hours = 5.0;
  ScriptedArrivals arrivals({100.0, 1100.0});
  const TappingResult r = run_tapping_simulation(c, arrivals);
  EXPECT_EQ(r.originals, 2u);
  EXPECT_DOUBLE_EQ(r.avg_cost_s, 7200.0);  // both paid a full original
}

TEST(StreamTapping, JoinExactlyAtPatchExpiryCannotTapIt) {
  // The level-1 patch admitted at 400 carries [0, 300): its last content
  // second goes out over [699, 700). A client joining at exactly 700 gets
  // nothing from it and pays its full 600 s prefix.
  TappingConfig c = quick(1.0, TappingMode::kStreamTapping);
  c.restart_threshold_s = 3600.0;
  c.warmup_hours = 0.0;
  c.measured_hours = 5.0;
  ScriptedArrivals arrivals({100.0, 400.0, 700.0});
  const TappingResult r = run_tapping_simulation(c, arrivals);
  EXPECT_EQ(r.originals, 1u);
  EXPECT_NEAR(r.avg_streams * 5.0 * 3600.0, 7200.0 + 300.0 + 600.0, 1.0);
}

TEST(StreamTapping, JoinJustBeforePatchExpiryTapsTheTail) {
  // One second earlier the patch is still live: it will yet transmit
  // content (299, 300), so the joiner at 699 pays 599 - 1 = 598 s.
  TappingConfig c = quick(1.0, TappingMode::kStreamTapping);
  c.restart_threshold_s = 3600.0;
  c.warmup_hours = 0.0;
  c.measured_hours = 5.0;
  ScriptedArrivals arrivals({100.0, 400.0, 699.0});
  const TappingResult r = run_tapping_simulation(c, arrivals);
  EXPECT_NEAR(r.avg_streams * 5.0 * 3600.0, 7200.0 + 300.0 + 598.0, 1.0);
}

TEST(StreamTapping, TouchingStreamsDoNotDoubleCountPeak) {
  // Patch 1 is active over wall [400, 700); the t=700 joiner's own stream
  // opens at exactly 700. Close sorts before open at equal times, so the
  // peak is 2 concurrent streams (original + one patch), never 3.
  TappingConfig c = quick(1.0, TappingMode::kStreamTapping);
  c.restart_threshold_s = 3600.0;
  c.warmup_hours = 0.0;
  c.measured_hours = 5.0;
  ScriptedArrivals arrivals({100.0, 400.0, 700.0});
  const TappingResult r = run_tapping_simulation(c, arrivals);
  EXPECT_DOUBLE_EQ(r.max_streams, 2.0);
}

TEST(StreamTapping, ZeroLengthWindowReadsZero) {
  // Streams admitted during warmup run past the window start, but a
  // zero-length window clips them all away: 0 streams, not 0/0.
  for (TappingMode mode : {TappingMode::kPatching, TappingMode::kStreamTapping,
                           TappingMode::kIdealMerging}) {
    TappingConfig c = quick(10.0, mode);
    c.restart_threshold_s = 1800.0;
    c.measured_hours = 0.0;
    const TappingResult r = run_tapping_simulation(c);
    EXPECT_DOUBLE_EQ(r.avg_streams, 0.0) << static_cast<int>(mode);
    EXPECT_DOUBLE_EQ(r.max_streams, 0.0) << static_cast<int>(mode);
  }
  TappingConfig c = quick(10.0, TappingMode::kPatching);
  c.measured_hours = 0.0;
  EXPECT_DOUBLE_EQ(run_patching_simulation(c).avg_streams, 0.0);
}

TEST(StreamTapping, MaxAtLeastAverage) {
  const TappingResult r =
      run_tapping_simulation(quick(20.0, TappingMode::kStreamTapping));
  EXPECT_GE(r.max_streams, r.avg_streams);
}

TEST(StreamTapping, DeterministicForSeed) {
  TappingConfig c = quick(10.0, TappingMode::kStreamTapping);
  c.restart_threshold_s = 1800.0;
  const TappingResult a = run_tapping_simulation(c);
  const TappingResult b = run_tapping_simulation(c);
  EXPECT_DOUBLE_EQ(a.avg_streams, b.avg_streams);
  EXPECT_EQ(a.originals, b.originals);
}

TEST(StreamTapping, AverageCostReported) {
  TappingConfig c = quick(10.0, TappingMode::kStreamTapping);
  c.restart_threshold_s = 1800.0;
  const TappingResult r = run_tapping_simulation(c);
  EXPECT_GT(r.avg_cost_s, 0.0);
  EXPECT_LE(r.avg_cost_s, 7200.0);
}

}  // namespace
}  // namespace vod
