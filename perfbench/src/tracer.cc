#include "tracer.h"

#include <cstdio>
#include <cstdlib>

namespace perfbench {

Tracer::Tracer(size_t store_capacity) : capacity_(0) {
  stack_.reserve(16);
  // Calibrate on empty spans before any real one is stored or counted.
  constexpr int kRounds = 20000;
  const NameId probe = define("tracer.calibration");
  for (int i = 0; i < kRounds; ++i) {
    begin(probe);
    end();
  }
  span_cost_ns_ = static_cast<double>(stats_[probe].total_ns) / kRounds;
  names_.clear();
  keep_durations_.clear();
  stats_.clear();
  recorded_ = 0;
  capacity_ = store_capacity;
  store_.reserve(capacity_);
}

double Tracer::mean_ns(NameId name) const {
  const Stats& s = stats_[name];
  if (s.calls == 0) return 0.0;
  return static_cast<double>(s.total_ns) / static_cast<double>(s.calls);
}

double Tracer::net_mean_ns(NameId name) const {
  const double mean = mean_ns(name);
  return mean > span_cost_ns_ ? mean - span_cost_ns_ : 0.0;
}

double Tracer::net_self_ns(NameId name) const {
  const Stats& s = stats_[name];
  const double net = static_cast<double>(s.self_ns) -
                     span_cost_ns_ * static_cast<double>(s.calls);
  return net > 0.0 ? net : 0.0;
}

Tracer::NameId Tracer::define(const std::string& name, bool keep_durations) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<NameId>(i);
  }
  names_.push_back(name);
  keep_durations_.push_back(keep_durations);
  stats_.emplace_back();
  return static_cast<NameId>(names_.size() - 1);
}

void Tracer::begin(NameId name) {
  Frame frame;
  frame.name = name;
  if (store_.size() < capacity_) {
    frame.stored_at = static_cast<uint32_t>(store_.size());
    Record record;
    record.name = name;
    record.parent = stack_.empty() ? kNotStored : stack_.back().stored_at;
    store_.push_back(record);
  }
  frame.start = now_ns();
  stack_.push_back(frame);
}

void Tracer::end() {
  const int64_t t = now_ns();
  if (stack_.empty()) {
    std::fprintf(stderr, "perfbench: span closed with none open\n");
    std::abort();
  }
  const Frame frame = stack_.back();
  stack_.pop_back();
  const int64_t duration = t - frame.start;
  Stats& s = stats_[frame.name];
  ++s.calls;
  s.total_ns += duration;
  s.self_ns += duration - frame.child_ns;
  if (keep_durations_[frame.name]) {
    s.durations_ns.push_back(static_cast<double>(duration));
  }
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (frame.stored_at != kNotStored) {
    store_[frame.stored_at].start = frame.start;
    store_[frame.stored_at].end = t;
  }
  ++recorded_;
}

bool Tracer::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tstart_ns\tend_ns\tparent\n");
  for (const Record& r : store_) {
    const long long parent =
        r.parent == kNotStored ? -1 : static_cast<long long>(r.parent);
    std::fprintf(f, "%s\t%lld\t%lld\t%lld\n", names_[r.name].c_str(),
                 static_cast<long long>(r.start),
                 static_cast<long long>(r.end), parent);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
