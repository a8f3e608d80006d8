#include "protocols/static_mapping.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "schedule/slot_math.h"
#include "util/check.h"

namespace vod {

RoundRobinMapping::RoundRobinMapping(int num_segments,
                                     const std::function<int(int)>& width)
    : n_(num_segments) {
  VOD_CHECK(num_segments >= 1);
  for (int j = 1, first = 1; first <= n_; ++j) {
    const int count = std::min(width(j), n_ - first + 1);
    VOD_CHECK(count >= 1);
    first_.push_back(first);
    count_.push_back(count);
    first += count;
  }
  cycle_ = 1;
  for (int c : count_) cycle_ = std::lcm<Slot>(cycle_, c);
}

Segment RoundRobinMapping::segment_at(int stream, Slot slot) const {
  VOD_DCHECK(stream >= 0 && stream < streams());
  VOD_DCHECK(slot >= 1);
  const size_t k = static_cast<size_t>(stream);
  return static_cast<Segment>(
      first_[k] + static_cast<int>(cycle_phase(slot, count_[k])));
}

int RoundRobinMapping::stream_of(Segment j) const {
  VOD_CHECK(j >= 1 && j <= n_);
  for (size_t k = 0; k < first_.size(); ++k) {
    if (j < first_[k] + count_[k]) return static_cast<int>(k);
  }
  VOD_CHECK(false);
  return -1;
}

MappingValidation validate_mapping(const StaticMapping& m) {
  MappingValidation v;
  const int n = m.num_segments();
  const Slot cycle = m.cycle_length();
  VOD_CHECK(cycle >= 1);

  // Examine two full cycles so wrap-around gaps are covered, starting from
  // slot 1.
  const Slot horizon = 2 * cycle + n;
  std::vector<Slot> last(static_cast<size_t>(n) + 1, 0);
  std::vector<bool> seen(static_cast<size_t>(n) + 1, false);

  for (Slot t = 1; t <= horizon; ++t) {
    for (int k = 0; k < m.streams(); ++k) {
      const Segment j = m.segment_at(k, t);
      if (j == 0) continue;
      if (j < 1 || j > n) {
        v.ok = false;
        v.error = "segment id out of range";
        return v;
      }
      const size_t idx = static_cast<size_t>(j);
      if (seen[idx]) {
        const Slot gap = t - last[idx];
        if (gap > j) {
          std::ostringstream os;
          os << "segment S" << j << " gap " << gap << " > " << j
             << " ending at slot " << t;
          v.ok = false;
          v.error = os.str();
          return v;
        }
      } else {
        // First occurrence must itself be within j slots of the start, or a
        // client arriving during slot 0 would miss its deadline.
        if (t > j) {
          std::ostringstream os;
          os << "segment S" << j << " first appears at slot " << t
             << " (> its period " << j << ")";
          v.ok = false;
          v.error = os.str();
          return v;
        }
        seen[idx] = true;
      }
      last[idx] = t;
    }
  }
  for (int j = 1; j <= n; ++j) {
    if (!seen[static_cast<size_t>(j)]) {
      std::ostringstream os;
      os << "segment S" << j << " never transmitted";
      v.ok = false;
      v.error = os.str();
      return v;
    }
  }
  return v;
}

std::vector<Slot> first_occurrences(const StaticMapping& m, Slot arrival) {
  const int n = m.num_segments();
  std::vector<Slot> out(static_cast<size_t>(n) + 1, 0);
  int remaining = n;
  const Slot horizon = arrival + m.cycle_length() + n + 1;
  for (Slot t = arrival + 1; t <= horizon && remaining > 0; ++t) {
    for (int k = 0; k < m.streams(); ++k) {
      const Segment j = m.segment_at(k, t);
      if (j >= 1 && j <= n && out[static_cast<size_t>(j)] == 0) {
        out[static_cast<size_t>(j)] = t;
        --remaining;
      }
    }
  }
  VOD_CHECK_MSG(remaining == 0,
                "mapping failed to transmit every segment within a cycle");
  return out;
}

std::string render_grid(int streams, Slot first, Slot last,
                        const std::function<Segment(int, Slot)>& segment_at) {
  std::ostringstream os;
  os << "Slot      ";
  for (Slot s = first; s <= last; ++s) os << '\t' << s;
  os << '\n';
  for (int k = 0; k < streams; ++k) {
    os << "Stream " << (k + 1) << "  ";
    for (Slot s = first; s <= last; ++s) {
      const Segment j = segment_at(k, s);
      os << '\t';
      if (j == 0) {
        os << '-';
      } else {
        os << 'S' << j;
      }
    }
    os << '\n';
  }
  return os.str();
}

std::string render_mapping(const StaticMapping& m, Slot first, Slot last) {
  return render_grid(m.streams(), first, last, [&m](int k, Slot s) {
    return m.segment_at(k, s);
  });
}

}  // namespace vod
