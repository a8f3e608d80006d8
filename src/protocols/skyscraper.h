// Hua & Sheu's Skyscraper Broadcasting (paper §2, Figure 3).
//
// SB constrains the set-top box to receive at most two streams at once. In
// the equal-segment view used by this paper's Figure 3, stream j carries a
// group of w(j) consecutive segments in round-robin, where w is the
// skyscraper series 1, 2, 2, 5, 5, 12, 12, 25, 25, 52, 52, ... The group
// width also equals the group's rotation period, and since every group
// starts after the sum of the previous widths, each segment's period is
// within its deadline.
//
// Because the widths grow much more slowly than FB's powers of two (they
// are capped by what a 2-stream client can keep up with), SB always needs
// more server streams than FB or NPB for the same segment count — exactly
// the comparison §2 makes.
#pragma once

#include "protocols/static_mapping.h"

namespace vod {

// w(j) for j >= 1: 1, 2, 2, 5, 5, 12, 12, 25, 25, 52, 52, ...
int skyscraper_width(int j);

class SbMapping final : public RoundRobinMapping {
 public:
  // Builds the SB mapping for n segments; the last stream may carry a
  // truncated group.
  explicit SbMapping(int num_segments);

  // Streams SB needs for n segments.
  static int streams_for(int num_segments);
  // Segments k SB streams can carry: sum of the first k widths.
  static int capacity(int streams);
};

}  // namespace vod
