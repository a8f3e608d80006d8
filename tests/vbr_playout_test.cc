// End-to-end byte-level playout for the §4 VBR variants: run the real DHB
// scheduler under each variant's configuration, and for sampled clients
// replay their reception plans against the trace's byte curve — delivered
// kilobytes must cover consumption at every slot boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/dhb.h"
#include "sim/random.h"
#include "vbr/synthetic.h"
#include "vbr/variants.h"

namespace vod {
namespace {

struct VbrFixture {
  VbrTrace trace = generate_synthetic_vbr(SyntheticVbrParams{});
  VariantAnalysis va = analyze_variants(trace, 60.0);
};

const VbrFixture& fixture() {
  static const VbrFixture f;
  return f;
}

// Replays a client plan at byte granularity for a work-ahead variant:
// segment k carries rate*d KB; delivered-by-slot-t must cover consumption
// through slot t+1 (= C((t - arrival) * d) content-KB).
void check_bytes(const ClientPlan& plan, const DhbVariant& variant,
                 const VbrTrace& trace) {
  const double seg_kb = variant.stream_rate_kbs * variant.slot_s;
  std::vector<Slot> receptions = plan.reception_slot;
  std::sort(receptions.begin(), receptions.end());
  const Slot last = receptions.back();
  size_t delivered_segments = 0;
  for (Slot t = plan.arrival_slot + 1; t <= last + 1; ++t) {
    while (delivered_segments < receptions.size() &&
           receptions[delivered_segments] <= t) {
      ++delivered_segments;
    }
    const double delivered =
        std::min(static_cast<double>(delivered_segments) * seg_kb,
                 trace.total_kb());
    const double consumed = trace.cumulative_kb(
        static_cast<double>(t - plan.arrival_slot) * variant.slot_s);
    ASSERT_GE(delivered + 1e-6, consumed)
        << variant.name << " underflow at relative slot "
        << t - plan.arrival_slot;
  }
  // The whole video must eventually arrive.
  ASSERT_GE(static_cast<double>(receptions.size()) * seg_kb + 1e-6,
            trace.total_kb());
}

class VbrPlayoutTest : public ::testing::TestWithParam<const char*> {};

TEST_P(VbrPlayoutTest, RandomClientsNeverUnderflow) {
  const std::string which = GetParam();
  const VbrFixture& f = fixture();
  const DhbVariant& variant = which == "c" ? f.va.c : f.va.d;

  DhbScheduler scheduler(variant.dhb_config());
  Rng rng(17);
  int checked = 0;
  for (int step = 0; step < 600; ++step) {
    scheduler.advance_slot_view();
    for (uint64_t a = rng.poisson(0.4); a > 0; --a) {
      const DhbRequestResult r = scheduler.on_request();
      if (step % 7 == 0 && checked < 60) {
        check_bytes(r.plan, variant, f.trace);
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 30);
}

INSTANTIATE_TEST_SUITE_P(Variants, VbrPlayoutTest,
                         ::testing::Values("c", "d"),
                         [](const auto& param_info) {
                           return std::string("DHB_") + param_info.param;
                         });

TEST(VbrPlayout, VariantBRateDeliversEachSegmentInTime) {
  // DHB-b: every playback segment's bytes fit into one slot at the stream
  // rate — the defining property of the 789 KB/s-style rate.
  const VbrFixture& f = fixture();
  const double seg_capacity = f.va.b.stream_rate_kbs * f.va.slot_s;
  for (int k = 0; k < f.va.b.num_segments; ++k) {
    const double lo = static_cast<double>(k) * f.va.slot_s;
    const double hi = std::min(static_cast<double>(k + 1) * f.va.slot_s,
                               static_cast<double>(f.trace.duration_s()));
    const double segment_kb =
        f.trace.cumulative_kb(hi) - f.trace.cumulative_kb(lo);
    ASSERT_LE(segment_kb, seg_capacity + 1e-6) << "segment " << k + 1;
  }
}

TEST(VbrPlayout, VariantARateCoversEverySecond) {
  // DHB-a provisions the one-second peak: no second of content exceeds it.
  const VbrFixture& f = fixture();
  for (double v : f.trace.samples()) {
    ASSERT_LE(v, f.va.a.stream_rate_kbs + 1e-6);
  }
}

}  // namespace
}  // namespace vod
