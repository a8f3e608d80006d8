// Clang Thread Safety Analysis annotations and the annotated lock
// primitives the library's concurrent code uses.
//
// Under clang the VOD_* macros below expand to the thread-safety
// attributes (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html) and
// the build enables `-Wthread-safety -Werror=thread-safety`
// (CMakeLists.txt), so an unguarded access to a VOD_GUARDED_BY field, a
// missing lock on a VOD_REQUIRES function, or a lock leaked out of a
// scope is a *compile error* — the data-race analogue of the runtime
// ScheduleAuditor: checked by construction, not by a nightly TSan run.
// Under other compilers the macros expand to nothing and the wrappers
// below are zero-cost veneers over the std primitives.
//
// Locked code in this library therefore uses vod::Mutex / vod::MutexLock
// instead of the bare std types: std::mutex carries no annotations, so the
// analysis cannot follow it. The wrappers add nothing else — no fairness,
// no recursion, no timed waits, no condition variable — because nothing
// here needs them (DESIGN.md §11). The flight-recorder registry
// (obs/flight_recorder.cc) is the reference user.
#pragma once

#include <mutex>

// Attribute plumbing. Thread safety attributes are a clang extension; the
// analysis itself only runs under -Wthread-safety (clang), every other
// compiler sees plain declarations.
#if defined(__clang__)
#define VOD_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define VOD_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

// A type that acts as a lock (a "capability" in analysis terms).
#define VOD_CAPABILITY(x) VOD_THREAD_ANNOTATION(capability(x))
// An RAII type that acquires in its constructor, releases in its dtor.
#define VOD_SCOPED_CAPABILITY VOD_THREAD_ANNOTATION(scoped_lockable)
// Field may only be read or written while holding the named capability.
#define VOD_GUARDED_BY(x) VOD_THREAD_ANNOTATION(guarded_by(x))
// Pointer field whose *pointee* is protected by the named capability.
#define VOD_PT_GUARDED_BY(x) VOD_THREAD_ANNOTATION(pt_guarded_by(x))
// Function requires the capability held on entry (and does not release).
#define VOD_REQUIRES(...) \
  VOD_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define VOD_REQUIRES_SHARED(...) \
  VOD_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
// Function acquires / releases the capability.
#define VOD_ACQUIRE(...) VOD_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define VOD_RELEASE(...) VOD_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define VOD_TRY_ACQUIRE(...) \
  VOD_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
// Function must NOT be entered with the capability held (deadlock guard).
#define VOD_EXCLUDES(...) VOD_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
// Lock-ordering declarations between capabilities.
#define VOD_ACQUIRED_BEFORE(...) \
  VOD_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define VOD_ACQUIRED_AFTER(...) \
  VOD_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
// Runtime assertion that the capability is held (trusted by the analysis).
#define VOD_ASSERT_CAPABILITY(x) VOD_THREAD_ANNOTATION(assert_capability(x))
// Function returns a reference to the named capability.
#define VOD_RETURN_CAPABILITY(x) VOD_THREAD_ANNOTATION(lock_returned(x))
// Escape hatch: body is not analyzed. Every use needs a comment saying why.
#define VOD_NO_THREAD_SAFETY_ANALYSIS \
  VOD_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace vod {

// Annotated exclusive mutex. Prefer MutexLock over manual lock()/unlock().
class VOD_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() VOD_ACQUIRE() { mu_.lock(); }
  void unlock() VOD_RELEASE() { mu_.unlock(); }
  bool try_lock() VOD_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class MutexLock;
  std::mutex mu_;
};

// RAII scope lock over a Mutex.
class VOD_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) VOD_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() VOD_RELEASE() {}  // lock_ releases; body for attribute placement

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  std::lock_guard<std::mutex> lock_;
};

}  // namespace vod
