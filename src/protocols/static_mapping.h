// Framework for proactive (static) broadcasting protocols.
//
// A static protocol is a periodic segment-to-(stream, slot) mapping that is
// broadcast forever, independent of demand. Correctness is the pinwheel
// property: every window of j consecutive slots contains at least one
// transmission of segment S_j, which guarantees a client arriving during
// any slot receives every segment by its stream-through deadline.
//
// The validator checks that property plus stream-count accounting; it is
// shared by FB, SB and the NPB packer.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "schedule/types.h"

namespace vod {

class StaticMapping {
 public:
  virtual ~StaticMapping() = default;

  virtual int streams() const = 0;
  virtual int num_segments() const = 0;

  // Segment transmitted on `stream` (0-based) during `slot` (>= 1);
  // 0 = idle. Implementations must be periodic in `slot`.
  virtual Segment segment_at(int stream, Slot slot) const = 0;

  // Period after which the whole mapping repeats (used by validators to
  // bound the horizon they must examine).
  virtual Slot cycle_length() const = 0;
};

// A mapping of consecutive segment groups, one per stream: stream k
// round-robins its group's segments, so each repeats every width_k slots.
// FB and SB are two of them and differ only in their group widths.
class RoundRobinMapping : public StaticMapping {
 public:
  int streams() const override { return static_cast<int>(first_.size()); }
  int num_segments() const override { return n_; }
  Segment segment_at(int stream, Slot slot) const override;
  Slot cycle_length() const override { return cycle_; }

  // Stream (0-based) that carries segment j.
  int stream_of(Segment j) const;
  // Number of segments stream k rotates over (its repetition period).
  int rotation_length(int stream) const {
    return count_[static_cast<size_t>(stream)];
  }

 protected:
  // Stream j (1-based) carries the next width(j) segments; the last
  // group is cut at n.
  RoundRobinMapping(int num_segments, const std::function<int(int)>& width);

 private:
  int n_;
  std::vector<int> first_;  // first segment of each stream
  std::vector<int> count_;  // segments carried by each stream
  Slot cycle_;
};

struct MappingValidation {
  bool ok = true;
  std::string error;  // human-readable description of the first failure
};

// Checks over one full cycle (plus wrap-around) that:
//  * every segment 1..n appears somewhere,
//  * every gap between consecutive occurrences of S_j is <= j,
//  * no two streams carry the same segment in the same slot redundantly is
//    allowed but reported? — no: duplicates are legal, only gaps matter.
MappingValidation validate_mapping(const StaticMapping& m);

// Reception plan for a client arriving during `arrival`: for each segment,
// the first slot > arrival in which it is transmitted. Used by the dynamic
// variants (UD, dNPB) and by tests.
std::vector<Slot> first_occurrences(const StaticMapping& m, Slot arrival);

// Renders slots [first, last] of `streams` streams as the grid of the
// paper's Figures 1-5: a row of slot numbers, then one row per stream with
// cells "S3" (segment_at(stream, slot) == 3) or "-" (0, idle).
std::string render_grid(int streams, Slot first, Slot last,
                        const std::function<Segment(int, Slot)>& segment_at);

// render_grid() over a static mapping's streams (Figures 1-3).
std::string render_mapping(const StaticMapping& m, Slot first, Slot last);

}  // namespace vod
