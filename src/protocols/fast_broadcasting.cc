#include "protocols/fast_broadcasting.h"

#include "util/check.h"

namespace vod {

FbMapping::FbMapping(int num_segments)
    : RoundRobinMapping(num_segments, [](int j) { return 1 << (j - 1); }) {}

int FbMapping::streams_for(int num_segments) {
  VOD_CHECK(num_segments >= 1);
  int k = 0;
  for (int cap = 1; cap - 1 < num_segments; cap *= 2) ++k;
  return k;
}

int FbMapping::capacity(int streams) {
  VOD_CHECK(streams >= 0 && streams < 31);
  return (1 << streams) - 1;
}

}  // namespace vod
