// Juhn & Tseng's Fast Broadcasting protocol (paper §2, Figure 1).
//
// FB allocates k streams of the consumption rate b and partitions the video
// into 2^k - 1 equal segments. Stream j (1-based) round-robins segments
// S_{2^{j-1}} .. S_{2^j - 1}, so each of its segments repeats every 2^{j-1}
// slots — within its deadline since every index on stream j is >= 2^{j-1}.
//
// We generalize to an arbitrary segment count n (the paper's experiments
// use n = 99, which is not of the form 2^k - 1): the last stream simply
// carries fewer segments and rotates faster than required. This is also the
// mapping underlying the UD protocol's on-demand variant.
#pragma once

#include "protocols/static_mapping.h"

namespace vod {

class FbMapping final : public RoundRobinMapping {
 public:
  // Builds the generalized FB mapping for n segments.
  explicit FbMapping(int num_segments);

  // Streams FB needs for n segments: ceil(log2(n + 1)).
  static int streams_for(int num_segments);
  // Segments k full FB streams can carry: 2^k - 1.
  static int capacity(int streams);
};

}  // namespace vod
