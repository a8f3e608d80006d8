#include "util/parallel_for.h"

#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <thread>
#include <vector>

namespace vod {
namespace {

TEST(ResolveNumThreads, ExplicitCountPassesThrough) {
  EXPECT_EQ(resolve_num_threads(1), 1);
  EXPECT_EQ(resolve_num_threads(7), 7);
  EXPECT_EQ(resolve_num_threads(kMaxThreads), kMaxThreads);
}

TEST(ResolveNumThreads, ZeroMeansAutoAndAtLeastOne) {
  EXPECT_GE(resolve_num_threads(0), 1);
  EXPECT_LE(resolve_num_threads(0), kMaxThreads);
}

// Pure arithmetic: resolving a count starts no thread.
TEST(ResolveNumThreads, ClampsToTheWorkerCap) {
  EXPECT_EQ(resolve_num_threads(kMaxThreads + 1), kMaxThreads);
  EXPECT_EQ(resolve_num_threads(1000000), kMaxThreads);
  EXPECT_EQ(resolve_num_threads(INT_MAX), kMaxThreads);
}

TEST(ResolveNumThreadsDeath, NegativeRejected) {
  EXPECT_DEATH(resolve_num_threads(-1), "thread count");
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  // Each index also records the thread that ran it: above one thread the
  // caller only joins, so its thread-local state never sees a task.
  std::vector<std::atomic<int>> hits(257);
  std::vector<std::thread::id> ran_on(hits.size());
  parallel_for(4, 257, [&](int i) {
    ++hits[static_cast<size_t>(i)];
    ran_on[static_cast<size_t>(i)] = std::this_thread::get_id();
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    EXPECT_NE(ran_on[i], std::this_thread::get_id()) << "index " << i;
  }
}

TEST(ParallelFor, FewerTasksThanThreads) {
  std::vector<std::atomic<int>> hits(3);
  parallel_for(8, 3, [&hits](int i) { ++hits[static_cast<size_t>(i)]; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, ZeroTasksIsANoOp) {
  for (int threads : {1, 2}) {
    parallel_for(threads, 0, [](int) { FAIL() << "must not be called"; });
  }
}

TEST(ParallelFor, OneThreadRunsInlineInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  for (int threads : {-1, 0, 1}) {
    std::vector<int> order;
    parallel_for(threads, 20, [&order, caller](int i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    std::vector<int> expected;
    for (int i = 0; i < 20; ++i) expected.push_back(i);
    EXPECT_EQ(order, expected) << threads << " threads";
  }
}

TEST(ParallelFor, DisjointSlotWritesNeedNoLocking) {
  // The determinism contract: each task owns one output slot, reduction
  // happens after the join. TSan builds verify the absence of races.
  std::vector<double> out(500, 0.0);
  parallel_for(4, 500, [&out](int i) {
    out[static_cast<size_t>(i)] = static_cast<double>(i) * 0.5;
  });
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], static_cast<double>(i) * 0.5);
  }
}

}  // namespace
}  // namespace vod
