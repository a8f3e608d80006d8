#include "util/parallel_for.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
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
  // caller only folds, so its thread-local state never sees a task.
  std::vector<std::atomic<int>> hits(257);
  std::vector<std::thread::id> ran_on(hits.size());
  parallel_for<int>(
      4, 257,
      [&](int i, int&) {
        ++hits[static_cast<size_t>(i)];
        ran_on[static_cast<size_t>(i)] = std::this_thread::get_id();
      },
      [](int, int&) {});
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    EXPECT_NE(ran_on[i], std::this_thread::get_id()) << "index " << i;
  }
}

TEST(ParallelFor, FewerTasksThanThreads) {
  std::vector<std::atomic<int>> hits(3);
  std::vector<int> folded;
  parallel_for<int>(
      8, 3, [&hits](int i, int&) { ++hits[static_cast<size_t>(i)]; },
      [&folded](int i, int&) { folded.push_back(i); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(folded, (std::vector<int>{0, 1, 2}));
}

TEST(ParallelFor, ZeroTasksIsANoOp) {
  for (int threads : {1, 2}) {
    parallel_for<int>(
        threads, 0, [](int, int&) { FAIL() << "must not be called"; },
        [](int, int&) { FAIL() << "must not be called"; });
  }
}

TEST(ParallelFor, OneThreadRunsInlineInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  for (int threads : {-1, 0, 1}) {
    std::vector<int> order;
    parallel_for<int>(
        threads, 20,
        [&order, caller](int i, int&) {
          EXPECT_EQ(std::this_thread::get_id(), caller);
          order.push_back(i);
        },
        [&order](int i, int&) { order.push_back(-i - 1); });
    std::vector<int> expected;
    for (int i = 0; i < 20; ++i) {
      expected.push_back(i);
      expected.push_back(-i - 1);
    }
    EXPECT_EQ(order, expected) << threads << " threads";
  }
}

TEST(ParallelFor, DisjointSlotWritesNeedNoLocking) {
  // The determinism contract: each task fills only its own ring buffer,
  // and the caller reads it only in the fold. TSan builds verify the
  // absence of races.
  std::vector<double> out(500, 0.0);
  parallel_for<double>(
      4, 500,
      [](int i, double& buffer) { buffer = static_cast<double>(i) * 0.5; },
      [&out](int i, double& buffer) { out[static_cast<size_t>(i)] = buffer; });
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], static_cast<double>(i) * 0.5);
  }
}

// The folds run on the calling thread in index order, each on the buffer
// its own task filled, at any thread count: what makes a floating-point
// reduction through them independent of the workers.
TEST(ParallelFor, FoldsRunInIndexOrderOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  for (int threads : {2, 3, 4, 8}) {
    std::vector<int> order;
    parallel_for<std::vector<int>>(
        threads, 257,
        [](int i, std::vector<int>& buffer) { buffer.assign(3, i); },
        [&order, caller](int i, std::vector<int>& buffer) {
          EXPECT_EQ(std::this_thread::get_id(), caller);
          EXPECT_EQ(buffer, std::vector<int>(3, i));
          order.push_back(i);
        });
    ASSERT_EQ(order.size(), 257u) << threads << " threads";
    for (size_t i = 0; i < order.size(); ++i) {
      ASSERT_EQ(order[i], static_cast<int>(i)) << threads << " threads";
    }
  }
}

// A slow first task holds the fold point: the other workers may run ahead
// of it by the ring, kFoldWindowPerWorker tasks per worker, and no more,
// so a run holds that many buffers however long the slow task takes.
TEST(ParallelFor, WorkersStayWithinTheFoldWindow) {
  for (int threads : {2, 4}) {
    const int window = kFoldWindowPerWorker * threads;
    std::atomic<int> folds{0};
    std::atomic<bool> ring_full{false};
    std::vector<int> folds_at_start(200, -1);
    parallel_for<int>(
        threads, 200,
        [&](int i, int&) {
          folds_at_start[static_cast<size_t>(i)] = folds.load();
          if (i == window - 1) ring_full = true;
          if (i != 0) return;
          // Hold the fold point until the others have filled the ring, and
          // a while longer, so a worker that ignored the window shows.
          const auto give_up =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (!ring_full && std::chrono::steady_clock::now() < give_up) {
            std::this_thread::yield();
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        },
        [&folds](int, int&) { ++folds; });
    int furthest_ahead = 0;
    for (int i = 0; i < 200; ++i) {
      const int ahead = i - folds_at_start[static_cast<size_t>(i)];
      EXPECT_LT(ahead, window) << "task " << i << ", " << threads << " threads";
      furthest_ahead = std::max(furthest_ahead, ahead);
    }
    // The other workers did not wait for the slow task before the ring ran
    // out: they filled every buffer but its own.
    EXPECT_EQ(furthest_ahead, window - 1) << threads << " threads";
  }
}

}  // namespace
}  // namespace vod
