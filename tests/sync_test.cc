// Behavioral tests for the annotated lock primitives
// (util/thread_annotations.h). The *static* contract — VOD_GUARDED_BY
// fields rejecting unguarded access — is enforced at compile time by
// clang's -Werror=thread-safety (this file compiles under it in CI); the
// tests below pin the runtime semantics the annotations wrap: mutual
// exclusion, RAII release, and try_lock.
#include "util/thread_annotations.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace vod {
namespace {

TEST(Mutex, ProvidesMutualExclusion) {
  struct Shared {
    Mutex mutex;
    long counter VOD_GUARDED_BY(mutex) = 0;
  } shared;

  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(shared.mutex);
        ++shared.counter;
      }
    });
  }
  for (auto& th : threads) th.join();

  MutexLock lock(shared.mutex);
  EXPECT_EQ(shared.counter, static_cast<long>(kThreads) * kIncrements);
}

TEST(Mutex, TryLockReflectsHeldState) {
  Mutex mutex;
  {
    MutexLock lock(mutex);
    // Held here: try_lock from another thread must fail.
    bool acquired = true;
    std::thread prober([&mutex, &acquired] {
      acquired = mutex.try_lock();
      if (acquired) mutex.unlock();
    });
    prober.join();
    EXPECT_FALSE(acquired);
  }
  // MutexLock released at scope exit: try_lock must now succeed.
  const bool reacquired = mutex.try_lock();
  EXPECT_TRUE(reacquired);
  if (reacquired) mutex.unlock();
}

}  // namespace
}  // namespace vod
