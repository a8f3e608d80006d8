// Scheduling-cost microbenchmarks (paper §3: "each incoming request will
// result in the separate scheduling of 99 possible new segment instances.
// Fortunately ... the actual complexity of the task will be greatly
// reduced at high arrival rates because most of the segment instances
// required by a particular request would have been already scheduled").
//
// BM_RequestAdmission parameterizes the arrival intensity (requests per
// slot, x100) and reports the admission cost: it falls as load rises, as
// the paper argues. BM_AdvanceSlot measures the per-slot bookkeeping.
#include <benchmark/benchmark.h>

#include "core/dhb.h"
#include "sim/random.h"

namespace {

using namespace vod;

void BM_RequestAdmission(benchmark::State& state) {
  const double per_slot = static_cast<double>(state.range(0)) / 100.0;
  DhbConfig config;
  config.num_segments = 99;
  DhbScheduler scheduler(config);
  Rng rng(1);
  // Prime the schedule to steady state for this load.
  for (int i = 0; i < 500; ++i) {
    scheduler.advance_slot_view();
    for (uint64_t a = rng.poisson(per_slot); a > 0; --a) {
      scheduler.on_request();
    }
  }
  uint64_t requests = 0;
  for (auto _ : state) {
    scheduler.advance_slot_view();
    for (uint64_t a = 1 + rng.poisson(per_slot); a > 0; --a) {
      benchmark::DoNotOptimize(scheduler.on_request());
      ++requests;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(requests));
  state.counters["new_instances/req"] =
      static_cast<double>(scheduler.total_new_instances()) /
      static_cast<double>(scheduler.total_requests());
}
BENCHMARK(BM_RequestAdmission)->Arg(1)->Arg(10)->Arg(100)->Arg(1000);

void BM_AdvanceSlot(benchmark::State& state) {
  DhbConfig config;
  config.num_segments = 99;
  DhbScheduler scheduler(config);
  for (auto _ : state) {
    scheduler.advance_slot_view();
    benchmark::DoNotOptimize(scheduler.on_request());
  }
}
BENCHMARK(BM_AdvanceSlot);

void BM_IdleRequestFullSchedule(benchmark::State& state) {
  // Worst case: an idle system schedules all n fresh instances, probing
  // the whole O(sum T[j]) window.
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    DhbConfig config;
    config.num_segments = n;
    DhbScheduler scheduler(config);
    scheduler.advance_slot_view();
    benchmark::DoNotOptimize(scheduler.on_request());
  }
}
BENCHMARK(BM_IdleRequestFullSchedule)->Arg(9)->Arg(99)->Arg(299);

}  // namespace
