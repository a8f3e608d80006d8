// Self-test of the summariser and the span recorder (perfbench --self-test,
// also registered with ctest in this package).
#include <cstdio>
#include <vector>

#include "harness.h"
#include "summary.h"
#include "tracer.h"

namespace perfbench {
namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "self-test FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentile_refuses_thin_tails() {
  // p99 of n samples has n - ceil(0.99 n) samples beyond it.
  expect(!tail_percentile(ramp(999), 0.99).has_value(),
         "p99 of 999 samples (9 beyond) must be refused");
  expect(!tail_percentile(ramp(200), 0.99).has_value(),
         "p99 of 200 samples (2 beyond) must be refused");
  const auto p99 = tail_percentile(ramp(1000), 0.99);
  expect(p99.has_value() && *p99 == 990.0,
         "p99 of 1..1000 is 990 with 10 samples beyond");
  expect(!tail_percentile(ramp(19), 0.5).has_value(),
         "p50 of 19 samples (9 beyond) must be refused");
  const auto p50 = tail_percentile(ramp(20), 0.5);
  expect(p50.has_value() && *p50 == 10.0, "p50 of 1..20 is 10");
  expect(!tail_percentile({}, 0.5).has_value(), "empty input is refused");
  expect(!tail_percentile(ramp(5000), 1.0).has_value(),
         "the maximum has nothing beyond it");
}

void medians_and_quartiles() {
  expect(median(ramp(5)) == 3.0, "odd median");
  expect(median(ramp(4)) == 2.5, "even median");
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const Quartiles q = quartiles(ramp(10));
  expect(q.q1 == 2.75 && q.q3 == 8.25, "quartiles match Python's");
}

void tracer_self_time() {
  Tracer t(4);
  const Tracer::NameId outer = t.define("outer");
  const Tracer::NameId inner = t.define("inner", true);
  for (int i = 0; i < 3; ++i) {
    Span a(&t, outer);
    for (int k = 0; k < 2; ++k) {
      Span b(&t, inner);
      volatile int sink = 0;
      for (int j = 0; j < 1000; ++j) sink = sink + j;
    }
  }
  const Tracer::Stats& o = t.stats(outer);
  const Tracer::Stats& in = t.stats(inner);
  expect(o.calls == 3 && in.calls == 6, "span counts");
  expect(o.self_ns == o.total_ns - in.total_ns,
         "self time is duration minus child spans");
  expect(in.self_ns == in.total_ns, "leaf self time is its duration");
  expect(in.durations_ns.size() == 6 && o.durations_ns.empty(),
         "durations kept only where asked");
  expect(t.recorded() == 9 && t.stored() == 4, "storage is capped");
  Span none(nullptr, outer);  // a null tracer records nothing
  expect(t.recorded() == 9, "null tracer is a no-op");
}

}  // namespace

int run_self_test() {
  percentile_refuses_thin_tails();
  medians_and_quartiles();
  tracer_self_time();
  std::fprintf(stderr, "perfbench self-test: %d failure(s)\n", failures);
  return failures;
}

}  // namespace perfbench
