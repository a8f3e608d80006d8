// Debug-build checker for the library's single-writer discipline.
//
// Most mutable state here is *not* locked — it is owned: a DhbScheduler, a
// VodServer, or one shard of the multi-video engine is mutated by exactly
// one thread at a time (DESIGN.md §8/§11). Clang's
// thread-safety analysis cannot express "externally serialized", so this
// header supplies the runtime half of the contract: a ThreadChecker binds
// to the first thread that exercises the owning object and
// VOD_DCHECK_SERIAL fails fast if any other thread follows — turning a
// silent data race into a deterministic check failure in Debug builds.
//
// Binding is first-use, not construction: the multi-video engine builds
// its per-shard state on the orchestrator thread and hands it to whichever
// worker runs the shard, so construction-thread binding would misfire on a
// legal handoff. detach() re-arms the checker for an explicit ownership
// transfer (e.g. a result handed back to the orchestrator for merging).
//
// Copy/move semantics: a copied or moved-to checker starts unbound — the
// new object is a new ownership scope. VOD_DCHECK compiles away under
// NDEBUG, so release builds pay nothing; calls_serial() itself is a single
// relaxed-CAS-or-load either way.
#pragma once

#include <atomic>
#include <thread>

#include "util/check.h"

namespace vod {

class ThreadChecker {
 public:
  ThreadChecker() = default;
  // A new copy / moved-to checker guards a fresh ownership scope.
  ThreadChecker(const ThreadChecker&) {}
  ThreadChecker& operator=(const ThreadChecker&) { return *this; }

  // True when called on the owning thread; the first call binds. Safe to
  // call concurrently (the losing thread of a bind race sees `false`).
  bool calls_serial() const {
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id bound;  // default id: not bound yet
    if (owner_.compare_exchange_strong(bound, self,
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
      return true;  // we bound it
    }
    return bound == self;
  }

  // Releases ownership; the next calls_serial() binds to its caller. Call
  // only from the owning thread (or before any use).
  void detach() { owner_.store(std::thread::id(), std::memory_order_relaxed); }

 private:
  mutable std::atomic<std::thread::id> owner_{};
};

}  // namespace vod

// Asserts the single-writer contract on the hot entry points of owned
// mutable state. Debug builds only (VOD_DCHECK); see header comment.
#define VOD_DCHECK_SERIAL(checker) VOD_DCHECK((checker).calls_serial())
