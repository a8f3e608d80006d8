#include "protocols/npb.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>

#include "schedule/slot_math.h"
#include "util/check.h"
#include "util/thread_annotations.h"

namespace vod {
namespace {

// A free arithmetic progression of slots on one stream.
struct Leaf {
  int stream = 0;
  Slot stride = 0;
  Slot offset = 0;
};

constexpr Slot kCycleSaturation = Slot{1} << 62;

// capacity()'s memo, streams -> segments. Process-wide, so any thread may
// read or fill it under the lock.
Mutex g_capacity_mu;
std::map<int, int>& capacity_memo() VOD_REQUIRES(g_capacity_mu) {
  static std::map<int, int> memo;
  return memo;
}

Slot saturating_lcm(Slot a, Slot b) {
  const Slot g = std::gcd(a, b);
  const Slot q = a / g;
  if (q > kCycleSaturation / b) return kCycleSaturation;
  return q * b;
}

}  // namespace

std::optional<NpbMapping> NpbMapping::build(int streams, int num_segments) {
  VOD_CHECK(streams >= 1);
  VOD_CHECK(num_segments >= 1);

  std::vector<Leaf> pool;
  pool.reserve(64);
  for (int k = 0; k < streams; ++k) pool.push_back(Leaf{k, 1, 0});

  NpbMapping m;
  m.streams_ = streams;
  m.n_ = num_segments;
  m.period_.assign(static_cast<size_t>(num_segments) + 1, 0);
  // Placements tagged with their stream; flattened into the CSR layout
  // once every segment has found a progression.
  std::vector<std::pair<int, Entry>> placed;
  placed.reserve(static_cast<size_t>(num_segments));

  for (Segment s = 1; s <= num_segments; ++s) {
    // Pick the free progression with the largest usable period
    // floor(s/m)*m <= s; prefer the larger stride on ties (splitting a
    // coarse progression wastes less future capacity).
    int best = -1;
    Slot best_period = 0;
    for (size_t i = 0; i < pool.size(); ++i) {
      const Slot stride = pool[i].stride;
      if (stride > s) continue;
      const Slot period = (s / stride) * stride;
      if (best < 0 || period > best_period ||
          (period == best_period && stride > pool[static_cast<size_t>(best)].stride)) {
        best = static_cast<int>(i);
        best_period = period;
      }
    }
    if (best < 0) return std::nullopt;  // no progression fits segment s

    const Leaf leaf = pool[static_cast<size_t>(best)];
    pool.erase(pool.begin() + best);
    const Slot c = s / leaf.stride;  // split factor; child stride = c*stride
    // Child 0 carries the segment; children 1..c-1 return to the pool.
    placed.push_back({leaf.stream, Entry{s, c * leaf.stride, leaf.offset}});
    m.period_[static_cast<size_t>(s)] = c * leaf.stride;
    for (Slot child = 1; child < c; ++child) {
      pool.push_back(
          Leaf{leaf.stream, c * leaf.stride, leaf.offset + child * leaf.stride});
    }
  }

  // Counting-sort the placements by stream into the CSR arrays; placement
  // order within a stream is preserved (the stable bucket fill).
  m.stream_offsets_.assign(static_cast<size_t>(streams) + 1, 0);
  for (const auto& [k, e] : placed) ++m.stream_offsets_[static_cast<size_t>(k) + 1];
  for (int k = 0; k < streams; ++k) {
    m.stream_offsets_[static_cast<size_t>(k) + 1] +=
        m.stream_offsets_[static_cast<size_t>(k)];
  }
  m.entries_.resize(placed.size());
  std::vector<int> fill(m.stream_offsets_.begin(), m.stream_offsets_.end() - 1);
  m.stream_max_period_.assign(static_cast<size_t>(streams), 0);
  for (const auto& [k, e] : placed) {
    m.entries_[static_cast<size_t>(fill[static_cast<size_t>(k)]++)] = e;
    Slot& widest = m.stream_max_period_[static_cast<size_t>(k)];
    widest = std::max(widest, e.stride);
  }

  m.cycle_len_ = 1;
  for (const Entry& e : m.entries_) {
    m.cycle_len_ = saturating_lcm(m.cycle_len_, e.stride);
  }
  VOD_CHECK(m.validate().ok);
  return m;
}

Segment NpbMapping::segment_at(int stream, Slot slot) const {
  VOD_DCHECK(stream >= 0 && stream < streams_);
  VOD_DCHECK(slot >= 1);
  for (const Entry* e = stream_begin(stream); e != stream_end(stream); ++e) {
    if (stride_hits(slot, e->stride, e->offset)) return e->segment;
  }
  return 0;
}

Slot NpbMapping::period_of(Segment j) const {
  VOD_CHECK(j >= 1 && j <= n_);
  return period_[static_cast<size_t>(j)];
}

MappingValidation NpbMapping::validate() const {
  MappingValidation v;
  std::vector<int> placed(static_cast<size_t>(n_) + 1, 0);
  for (int k = 0; k < streams_; ++k) {
    const Entry* entries = stream_begin(k);
    const size_t count =
        static_cast<size_t>(stream_end(k) - stream_begin(k));
    for (size_t a = 0; a < count; ++a) {
      const Entry& ea = entries[a];
      if (ea.stride > ea.segment) {
        std::ostringstream os;
        os << "segment S" << ea.segment << " has period " << ea.stride
           << " > " << ea.segment;
        v.ok = false;
        v.error = os.str();
        return v;
      }
      if (ea.offset < 0 || ea.offset >= ea.stride) {
        v.ok = false;
        v.error = "offset outside stride";
        return v;
      }
      ++placed[static_cast<size_t>(ea.segment)];
      // Two progressions on the same stream collide iff their offsets are
      // congruent modulo gcd(strides).
      for (size_t b = a + 1; b < count; ++b) {
        const Entry& eb = entries[b];
        const Slot g = std::gcd(ea.stride, eb.stride);
        if (congruent_mod(ea.offset, eb.offset, g)) {
          std::ostringstream os;
          os << "S" << ea.segment << " and S" << eb.segment
             << " collide on one stream";
          v.ok = false;
          v.error = os.str();
          return v;
        }
      }
    }
  }
  for (Segment j = 1; j <= n_; ++j) {
    if (placed[static_cast<size_t>(j)] != 1) {
      std::ostringstream os;
      os << "segment S" << j << " placed " << placed[static_cast<size_t>(j)]
         << " times";
      v.ok = false;
      v.error = os.str();
      return v;
    }
  }
  return v;
}

int NpbMapping::harmonic_capacity(int streams) {
  double h = 0.0;
  int n = 0;
  for (;;) {
    h += 1.0 / static_cast<double>(n + 1);
    if (h > static_cast<double>(streams)) return n;
    ++n;
  }
}

int NpbMapping::capacity(int streams) {
  {
    MutexLock lock(g_capacity_mu);
    const std::map<int, int>& memo = capacity_memo();
    if (auto it = memo.find(streams); it != memo.end()) return it->second;
  }
  // The greedy packer is monotone in n (placing fewer segments never needs
  // more room), so the capacity is the last n that still builds. The
  // packing runs unlocked (milliseconds at k = 6); two threads that miss
  // on the same k both compute it and store the same value.
  int n = streams;
  const int limit = harmonic_capacity(streams);
  while (n <= limit && build(streams, n + 1).has_value()) ++n;
  if (!build(streams, n).has_value()) n = 0;  // fewer segments than streams
  MutexLock lock(g_capacity_mu);
  capacity_memo().emplace(streams, n);
  return n;
}

int NpbMapping::streams_for(int num_segments) {
  for (int k = 1;; ++k) {
    if (harmonic_capacity(k) < num_segments) continue;  // provably impossible
    if (capacity(k) >= num_segments) return k;
  }
}

}  // namespace vod
