#include "protocols/skyscraper.h"

#include "util/check.h"

namespace vod {

int skyscraper_width(int j) {
  VOD_CHECK(j >= 1);
  // Hua & Sheu's recurrence: 1, 2, 2, then alternating 2w+1 / repeat /
  // 2w+2 / repeat.
  if (j == 1) return 1;
  if (j == 2 || j == 3) return 2;
  int w = 2;  // w(3)
  for (int i = 4; i <= j; ++i) {
    switch (i % 4) {
      case 0:
        w = 2 * w + 1;
        break;
      case 2:
        w = 2 * w + 2;
        break;
      default:
        break;  // odd indices repeat the previous width
    }
  }
  return w;
}

SbMapping::SbMapping(int num_segments)
    : RoundRobinMapping(num_segments, skyscraper_width) {}

int SbMapping::streams_for(int num_segments) {
  VOD_CHECK(num_segments >= 1);
  int total = 0;
  int k = 0;
  while (total < num_segments) {
    ++k;
    total += skyscraper_width(k);
  }
  return k;
}

int SbMapping::capacity(int streams) {
  int total = 0;
  for (int j = 1; j <= streams; ++j) total += skyscraper_width(j);
  return total;
}

}  // namespace vod
