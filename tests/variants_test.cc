#include "vbr/variants.h"

#include <gtest/gtest.h>

#include "core/dhb.h"
#include "vbr/synthetic.h"

namespace vod {
namespace {

const VariantAnalysis& paper_analysis() {
  static const VariantAnalysis va =
      analyze_variants(generate_synthetic_vbr(SyntheticVbrParams{}), 60.0);
  return va;
}

TEST(Variants, DhbAMatchesPaperExactly) {
  // §4: 137 segments, 951 KB/s streams.
  const DhbVariant& a = paper_analysis().a;
  EXPECT_EQ(a.num_segments, 137);
  EXPECT_NEAR(a.stream_rate_kbs, 951.0, 1.0);
  EXPECT_TRUE(a.periods.empty());
}

TEST(Variants, SlotDurationFromWaitBound) {
  // 8170 s / 137 segments = 59.64 s slots for a one-minute wait bound.
  EXPECT_NEAR(paper_analysis().slot_s, 8170.0 / 137.0, 1e-9);
}

TEST(Variants, DhbBRateBetweenMeanAndPeak) {
  // Paper: 789 KB/s. The synthetic trace reproduces the ordering and lands
  // within ~6% of the value.
  const double r = paper_analysis().b.stream_rate_kbs;
  EXPECT_GT(r, 700.0);
  EXPECT_LT(r, 860.0);
  EXPECT_EQ(paper_analysis().b.num_segments, 137);
}

TEST(Variants, DhbCRateNearPaper) {
  // Paper: 671 KB/s and 129 segments.
  const DhbVariant& c = paper_analysis().c;
  EXPECT_NEAR(c.stream_rate_kbs, 671.0, 12.0);
  EXPECT_NEAR(c.num_segments, 129, 2);
}

TEST(Variants, RateOrderingMatchesPaper) {
  // 951 > 789 > 671 > 636: each optimization strictly reduces the rate.
  const VariantAnalysis& va = paper_analysis();
  EXPECT_GT(va.peak_rate_kbs, va.segment_rate_kbs);
  EXPECT_GT(va.segment_rate_kbs, va.workahead_rate_kbs);
  EXPECT_GT(va.workahead_rate_kbs, 636.0);
}

TEST(Variants, DhbDPeriodsMatchPaperStructure) {
  // §4: T[1] = 1; S_2 only every three slots; S_3 still every three slots;
  // nearly all other segments delayed by one to eight slots.
  const DhbVariant& d = paper_analysis().d;
  ASSERT_GE(d.periods.size(), 4u);
  EXPECT_EQ(d.periods[0], 1);
  EXPECT_EQ(d.periods[1], 3);
  EXPECT_EQ(d.periods[2], 3);
  int delayed = 0;
  int max_delay = 0;
  for (size_t k = 0; k < d.periods.size(); ++k) {
    const int delay = d.periods[k] - static_cast<int>(k + 1);
    EXPECT_GE(delay, 0);
    if (delay > 0) ++delayed;
    max_delay = std::max(max_delay, delay);
  }
  EXPECT_GT(delayed, static_cast<int>(d.periods.size()) / 2);  // "nearly all"
  EXPECT_GE(max_delay, 4);
  EXPECT_LE(max_delay, 9);  // paper: one to eight slots
}

TEST(Variants, CAndDShareRateAndCount) {
  const VariantAnalysis& va = paper_analysis();
  EXPECT_EQ(va.c.num_segments, va.d.num_segments);
  EXPECT_DOUBLE_EQ(va.c.stream_rate_kbs, va.d.stream_rate_kbs);
  EXPECT_LT(va.c.num_segments, va.a.num_segments);  // 137 -> ~129
}

TEST(Variants, ConfigsAreSchedulable) {
  // Every variant's DhbConfig must construct a working scheduler and
  // produce deadline-correct plans.
  const VariantAnalysis& va = paper_analysis();
  for (const DhbVariant* v : {&va.a, &va.b, &va.c, &va.d}) {
    DhbScheduler s(v->dhb_config());
    s.advance_slot_view();
    const DhbRequestResult r = s.on_request();
    const PlanDiagnostics diag = verify_plan(r.plan, s.periods());
    EXPECT_TRUE(diag.deadlines_met) << v->name;
  }
}

TEST(Variants, TighterWaitBoundMeansMoreSegments) {
  const VbrTrace t = generate_synthetic_vbr(SyntheticVbrParams{});
  const VariantAnalysis va30 = analyze_variants(t, 30.0);
  EXPECT_EQ(va30.a.num_segments, 273);  // ceil(8170/30)
  EXPECT_GT(va30.a.num_segments, paper_analysis().a.num_segments);
  // The peak-provisioned rate is unchanged; the per-segment rate grows
  // (shorter averaging windows).
  EXPECT_NEAR(va30.peak_rate_kbs, paper_analysis().peak_rate_kbs, 1e-9);
  EXPECT_GE(va30.segment_rate_kbs, paper_analysis().segment_rate_kbs);
}

TEST(Variants, DramaCollapsesTowardTheMean) {
  // §5's "other videos" question: a near-CBR video gains almost nothing
  // from work-ahead — the c rate sits on the mean and no segment can be
  // delayed.
  const VbrTrace t = generate_synthetic_vbr(drama_profile());
  const VariantAnalysis va = analyze_variants(t, 60.0);
  EXPECT_LT(va.workahead_rate_kbs, 1.01 * t.mean_rate_kbs());
  int delayed = 0;
  for (size_t k = 0; k < va.d.periods.size(); ++k) {
    if (va.d.periods[k] > static_cast<int>(k + 1)) ++delayed;
  }
  EXPECT_LE(delayed, va.d.num_segments / 10);
}

TEST(Variants, BackLoadedVideoSmoothsToItsMean) {
  // A demanding finale is absorbed entirely by work-ahead: the binding
  // prefix is the whole video, so the c rate equals the mean and nearly
  // every segment can wait.
  const VbrTrace t = generate_synthetic_vbr(documentary_profile());
  const VariantAnalysis va = analyze_variants(t, 60.0);
  EXPECT_NEAR(va.workahead_rate_kbs, t.mean_rate_kbs(),
              0.02 * t.mean_rate_kbs());
  EXPECT_LT(va.workahead_rate_kbs, 0.75 * va.segment_rate_kbs);
  int delayed = 0;
  for (size_t k = 0; k < va.d.periods.size(); ++k) {
    if (va.d.periods[k] > static_cast<int>(k + 1)) ++delayed;
  }
  EXPECT_GT(delayed, 3 * va.d.num_segments / 4);
}

TEST(Variants, NamesAreStable) {
  const VariantAnalysis& va = paper_analysis();
  EXPECT_EQ(va.a.name, "DHB-a");
  EXPECT_EQ(va.b.name, "DHB-b");
  EXPECT_EQ(va.c.name, "DHB-c");
  EXPECT_EQ(va.d.name, "DHB-d");
}

}  // namespace
}  // namespace vod
