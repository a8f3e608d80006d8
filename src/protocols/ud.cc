#include "protocols/ud.h"

#include <cmath>

#include "protocols/fast_broadcasting.h"

namespace vod {

double ud_expected_bandwidth(const VideoParams& video,
                             double requests_per_hour) {
  const FbMapping fb(video.num_segments);
  const double per_slot = video.arrivals_per_slot(requests_per_hour);
  double total = 0.0;
  for (int k = 0; k < fb.streams(); ++k) {
    total += 1.0 - std::exp(-per_slot * fb.rotation_length(k));
  }
  return total;
}

}  // namespace vod
