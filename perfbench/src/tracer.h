// In-memory span recorder for the traced benchmark run.
//
// The benchmark opens a span around each public call it makes into a
// library layer (an arrival draw, an admission, a slot advance, ...). A
// span has a name, a start, an end and a parent — the span that was open
// when it began. Self time (duration minus the time covered by child
// spans) is folded into per-name totals as each span closes, so the
// layer breakdown needs no post-pass; the first `store_capacity` spans
// are also kept verbatim and written out when the run ends.
//
// Single-threaded: the traced run drives the library from one thread.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time of the calling thread, in seconds. The benchmark's host-time
// metrics use it rather than wall time: on a virtual machine wall time also
// counts the time the hypervisor runs other guests (steal time), which made
// identical units differ by up to 1.7x. A read costs a system call (~0.4 us
// on a KVM guest), so it brackets whole regions, never single calls.
inline double thread_cpu_s() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

class Tracer {
 public:
  using NameId = uint16_t;

  struct Stats {
    uint64_t calls = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
    std::vector<double> durations_ns;  // only for names defined with samples
  };

  explicit Tracer(size_t store_capacity);

  // Registers a span name; `keep_durations` also keeps every span's
  // duration (for percentiles). Returns the id begin() takes.
  NameId define(const std::string& name, bool keep_durations = false);

  void begin(NameId name);
  void end();  // closes the innermost open span

  const Stats& stats(NameId name) const { return stats_[name]; }

  // Mean duration of a name's spans, as measured: it includes the part of
  // the tracer's own begin/end bookkeeping that falls inside the interval
  // (span_cost_ns(), measured once at construction on empty spans, the
  // same for every name).
  double mean_ns(NameId name) const;
  // The same mean, and the name's total self time, net of that cost — for
  // the accounting that adds span times up against an untraced run.
  double net_mean_ns(NameId name) const;
  double net_self_ns(NameId name) const;
  double span_cost_ns() const { return span_cost_ns_; }
  uint64_t recorded() const { return recorded_; }
  uint64_t stored() const { return store_.size(); }

  // Writes the stored spans as TSV: name, start_ns, end_ns, parent (the
  // parent's row number, -1 for a root or a parent that was not stored).
  bool write_tsv(const std::string& path) const;

 private:
  static constexpr uint32_t kNotStored = UINT32_MAX;

  struct Record {
    int64_t start = 0;
    int64_t end = 0;
    uint32_t parent = kNotStored;
    NameId name = 0;
  };
  struct Frame {
    NameId name = 0;
    int64_t start = 0;
    int64_t child_ns = 0;
    uint32_t stored_at = kNotStored;
  };

  size_t capacity_;
  std::vector<std::string> names_;
  std::vector<bool> keep_durations_;
  std::vector<Stats> stats_;
  std::vector<Frame> stack_;
  std::vector<Record> store_;
  uint64_t recorded_ = 0;
  double span_cost_ns_ = 0.0;
};

// RAII span; a null tracer makes it a no-op (the untraced run).
class Span {
 public:
  Span(Tracer* tracer, Tracer::NameId name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(name);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
