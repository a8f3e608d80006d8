// Steady-state allocation audit for the data-oriented slot kernel
// (DESIGN.md §14): after a warmup phase in which the slab capacities
// plateau, a scheduler slot — admissions plus the clock advance — must
// complete without touching the system allocator at all.
//
// Two layers of evidence, cross-checked:
//   * a global operator new/delete override counts every heap allocation
//     in the process; the measured phase must add exactly zero;
//   * the schedule's slab-grow meter must be flat across the measured
//     phase: no slab was re-laid, so the zero above is the steady state
//     and not an accounting accident.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/dhb.h"

namespace {

std::atomic<uint64_t> g_heap_allocations{0};

void* counted_alloc(std::size_t size) {
  ++g_heap_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace vod {
namespace {

// Drives the engine's hot path: plan-discarding batch admissions (what
// the sharded multi-video engine calls per slot) plus the span-returning
// clock advance. `slot` seeds a deterministic small batch size.
void run_slots(DhbScheduler* dhb, int slots, int phase) {
  for (int s = 0; s < slots; ++s) {
    dhb->on_request_batch_discard(1 + static_cast<uint64_t>((s + phase) % 3));
    dhb->advance_slot_view();
  }
}

TEST(AllocAudit, UncappedSteadySlotsAreAllocationFree) {
  DhbConfig config;  // n = 99, coalescing on: the bench engine's shape
  DhbScheduler dhb(config);

  // Warmup: let every slab hit its plateau capacity. 3n slots cover
  // several full window generations.
  run_slots(&dhb, 300, 0);

  const uint64_t slab_grows = dhb.schedule().total_slab_grows();
  const uint64_t heap_before = g_heap_allocations.load();

  run_slots(&dhb, 200, 1);

  EXPECT_EQ(g_heap_allocations.load() - heap_before, 0u)
      << "steady-state slots reached the system allocator";
  EXPECT_EQ(dhb.schedule().total_slab_grows(), slab_grows)
      << "a slab re-layout happened after warmup";
}

TEST(AllocAudit, CappedSteadySlotsAreAllocationFree) {
  // The capped variant exercises the per-admission client-load counts and
  // the capped window scans, on a schedule below the index cutover: the
  // counts vector is sized at construction and reused by every admission.
  DhbConfig config;
  config.num_segments = 40;
  config.client_stream_cap = 3;
  DhbScheduler dhb(config);
  ASSERT_FALSE(dhb.placement_index_active());

  run_slots(&dhb, 200, 0);

  const uint64_t slab_grows = dhb.schedule().total_slab_grows();
  const uint64_t heap_before = g_heap_allocations.load();
  run_slots(&dhb, 150, 1);
  EXPECT_EQ(g_heap_allocations.load() - heap_before, 0u)
      << "capped steady-state slots reached the system allocator";
  EXPECT_EQ(dhb.schedule().total_slab_grows(), slab_grows)
      << "a slab re-layout happened after warmup";
}

TEST(AllocAudit, CappedIndexedSteadySlotsAreAllocationFree) {
  // n = 200 clears the default index cutover: capped placements still
  // scan, while every placed instance and every advance also updates the
  // range-min index. That upkeep must allocate nothing either.
  DhbConfig config;
  config.num_segments = 200;
  config.client_stream_cap = 3;
  DhbScheduler dhb(config);
  ASSERT_TRUE(dhb.placement_index_active());

  run_slots(&dhb, 600, 0);

  const uint64_t slab_grows = dhb.schedule().total_slab_grows();
  const uint64_t heap_before = g_heap_allocations.load();
  run_slots(&dhb, 200, 1);
  EXPECT_EQ(g_heap_allocations.load() - heap_before, 0u)
      << "capped indexed steady-state slots reached the system allocator";
  EXPECT_EQ(dhb.schedule().total_slab_grows(), slab_grows)
      << "a slab re-layout happened after warmup";
}

TEST(AllocAudit, RefusedBoundedAttemptsAllocateNothing) {
  // Bounded admission builds its result in the scheduler's reused scratch
  // and copies it out only on success: a refused attempt allocates
  // nothing, and an admitted one exactly once, for the plan it returns.
  DhbConfig config;  // n = 99: three attempts a slot at a cap of 4 streams
  DhbScheduler dhb(config);
  auto run = [&dhb](int slots) {
    uint64_t admitted = 0;
    for (int s = 0; s < slots; ++s) {
      for (int a = 0; a < 3; ++a) {
        if (dhb.on_request_bounded(4)) ++admitted;
      }
      dhb.advance_slot_view();
    }
    return admitted;
  };
  run(300);

  const uint64_t slab_grows = dhb.schedule().total_slab_grows();
  const uint64_t rejected = dhb.total_rejected_admissions();
  const uint64_t heap_before = g_heap_allocations.load();
  const uint64_t admitted = run(300);
  EXPECT_EQ(g_heap_allocations.load() - heap_before, admitted)
      << "a bounded attempt allocated beyond the plan it returns";
  EXPECT_GT(admitted, 0u);
  EXPECT_GT(dhb.total_rejected_admissions(), rejected)
      << "the cap never refused an attempt";
  EXPECT_EQ(dhb.schedule().total_slab_grows(), slab_grows)
      << "a slab re-layout happened after warmup";
}

TEST(AllocAudit, WarmupItselfIsBounded) {
  // Construction plus warmup allocates a handful of times (the slabs, the
  // plan buffers, a re-layout or two), and slab growth stops instead of
  // recurring: one allocation per slot would put 300 here.
  const uint64_t heap_before = g_heap_allocations.load();
  DhbConfig config;
  DhbScheduler dhb(config);
  run_slots(&dhb, 300, 0);
  EXPECT_LE(g_heap_allocations.load() - heap_before, 16u);
  EXPECT_LE(dhb.schedule().total_slab_grows(), 16u);
  EXPECT_GT(dhb.schedule().total_instances_added(), 0u);
}

}  // namespace
}  // namespace vod
