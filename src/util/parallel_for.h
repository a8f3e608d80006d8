// Fork-join over independent tasks: the one concurrency primitive the
// catalog engine needs (server/multi_video.cc, DESIGN.md §8). Each task
// writes only its own output slot, and the caller reduces them in index
// order after the join, so results never depend on the thread count.
#pragma once

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "util/check.h"

namespace vod {

// Most worker threads any fork-join starts. Results are bit-identical at
// every count, so the cap changes no output; it stops a hostile knob from
// asking the OS for one thread per task.
inline constexpr int kMaxThreads = 256;

// Resolves a user-facing thread-count knob: n >= 1 means n threads, 0
// means auto (one per hardware thread); the answer is in [1, kMaxThreads].
inline int resolve_num_threads(int requested) {
  VOD_CHECK_MSG(requested >= 0, "thread count must be >= 0 (0 = auto)");
  const unsigned want = requested > 0 ? static_cast<unsigned>(requested)
                                      : std::thread::hardware_concurrency();
  return static_cast<int>(
      std::clamp(want, 1u, static_cast<unsigned>(kMaxThreads)));
}

// Runs fn(0), ..., fn(n - 1), each exactly once, and returns after every
// call has returned. At threads <= 1 the calls run inline, in index order.
// Otherwise `threads` workers claim indices in ascending order from one
// counter and the calling thread only joins them, so state local to the
// caller's thread (an installed obs::ObsSink) sees none of the calls.
// fn must not throw: the library reports failure through VOD_CHECK.
template <typename Fn>
void parallel_for(int threads, int n, Fn&& fn) {
  if (threads <= 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<int> next{0};
  // A jthread joins when destroyed, so every started worker is joined
  // before `next` goes, also if a later one fails to start.
  std::vector<std::jthread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&next, n, &fn] {
      for (int i = next++; i < n; i = next++) fn(i);
    });
  }
}

}  // namespace vod
