// Ordered fork-join over independent tasks: the one concurrency primitive
// the catalog engine needs (server/multi_video.cc, DESIGN.md §8). Each task
// fills a buffer of a small ring, and the calling thread folds the buffers
// into its result in index order as soon as each one is in. The fold order
// never depends on the thread count, so neither do the results, and a run
// holds a ring of buffers whose size depends on the workers, not one buffer
// per task.
#pragma once

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "util/check.h"

namespace vod {

// Most worker threads any fork-join starts. Results are bit-identical at
// every count, so the cap changes no output; it stops a hostile knob from
// asking the OS for one thread per task.
inline constexpr int kMaxThreads = 256;

// Ring buffers per worker: the workers may run up to this many tasks per
// worker ahead of the fold, so one slow task at the fold point (the Zipf
// head of a catalog) does not stall the others at once. Results never
// depend on it.
inline constexpr int kFoldWindowPerWorker = 4;

// Resolves a user-facing thread-count knob: n >= 1 means n threads, 0
// means auto (one per hardware thread); the answer is in [1, kMaxThreads].
inline int resolve_num_threads(int requested) {
  VOD_CHECK_MSG(requested >= 0, "thread count must be >= 0 (0 = auto)");
  const unsigned want = requested > 0 ? static_cast<unsigned>(requested)
                                      : std::thread::hardware_concurrency();
  return static_cast<int>(
      std::clamp(want, 1u, static_cast<unsigned>(kMaxThreads)));
}

// Runs work(i, buffer) and then fold(i, buffer) for i = 0, ..., n - 1,
// each exactly once, and returns after the last fold. The folds run on the
// calling thread in index order, so fold(i) sees the buffer work(i) filled
// and every earlier fold has returned. At threads <= 1 everything runs
// inline on one Buffer: work(0), fold(0), work(1), fold(1), .... Otherwise
// `threads` workers claim indices in ascending order from one counter and
// fill a ring of kFoldWindowPerWorker * threads Buffers (task i fills
// buffer i mod ring size), and a worker waits rather than start task i
// before fold(i - ring size) has returned. The calling thread runs only
// the folds, so state local to it (an installed obs::ObsSink) sees none of
// the work calls. A buffer keeps what the previous task using it left, so
// work must reset what it fills. Neither callable may throw: the library
// reports failure through VOD_CHECK.
template <typename Buffer, typename Work, typename Fold>
void parallel_for(int threads, int n, Work&& work, Fold&& fold) {
  if (threads <= 1) {
    Buffer buffer;
    for (int i = 0; i < n; ++i) {
      work(i, buffer);
      fold(i, buffer);
    }
    return;
  }
  const int window = std::min(kFoldWindowPerWorker * threads, n);
  std::vector<Buffer> ring(static_cast<size_t>(std::max(window, 0)));
  // ready[b] is 1 + the last task whose work filled ring[b]; folded is the
  // number of folds that have returned. Each store publishes the buffer
  // writes before it (release) to the thread that waits on it (acquire).
  std::vector<std::atomic<int>> ready(ring.size());
  std::atomic<int> folded{0};
  std::atomic<int> next{0};
  auto worker = [&] {
    for (int i = next++; i < n; i = next++) {
      for (int f = folded.load(std::memory_order_acquire); i - f >= window;
           f = folded.load(std::memory_order_acquire)) {
        folded.wait(f, std::memory_order_acquire);
      }
      const size_t b = static_cast<size_t>(i % window);
      work(i, ring[b]);
      ready[b].store(i + 1, std::memory_order_release);
      ready[b].notify_one();
    }
  };
  std::exception_ptr start_failure;
  {
    // A jthread joins when destroyed, so every started worker is joined
    // before the ring goes. The workers wait on the folds, so if one fails
    // to start, the caller folds every task that the others run, and then
    // reports the failure.
    std::vector<std::jthread> workers;
    workers.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads && !start_failure; ++t) {
      try {
        workers.emplace_back(worker);
      } catch (...) {
        start_failure = std::current_exception();
      }
    }
    if (workers.empty()) std::rethrow_exception(start_failure);
    for (int i = 0; i < n; ++i) {
      const size_t b = static_cast<size_t>(i % window);
      for (int r = ready[b].load(std::memory_order_acquire); r != i + 1;
           r = ready[b].load(std::memory_order_acquire)) {
        ready[b].wait(r, std::memory_order_acquire);
      }
      fold(i, ring[b]);
      folded.store(i + 1, std::memory_order_release);
      folded.notify_all();
    }
  }
  if (start_failure) std::rethrow_exception(start_failure);
}

}  // namespace vod
