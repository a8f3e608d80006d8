// New Pagoda Broadcasting (paper §2, Figure 2; Pâris, ICCCN'99).
//
// NPB fills k streams with fixed-size segments under the pinwheel
// constraint "segment S_j appears in every window of j slots", packing far
// more segments per stream than FB (9 vs 7 on three streams) by giving each
// segment a transmission period close to its index. The DHB paper does not
// reproduce the published mapping tables, so we reconstruct the protocol
// with recursive frequency splitting — the general construction behind the
// pagoda family (cf. Tseng et al.'s RFS): each stream starts as one
// arithmetic progression of slots with stride 1; to place segment s, the
// packer picks the free progression (stride m) maximizing the usable period
// floor(s/m)*m, splits it into floor(s/m) child progressions of that
// period, assigns one to S_s and returns the rest to the pool.
//
// Properties (all checked by validate()):
//   * S_s is transmitted exactly every stride(s) <= s slots, so every
//     pinwheel window is satisfied with zero jitter;
//   * progressions on one stream are pairwise disjoint residue classes;
//   * capacity(3) == 9, reproducing NPB's headline datapoint, and
//     capacity(k) is bounded above by the harmonic limit H_n <= k, which
//     proves 99 segments need >= 6 streams (the level of the NPB line in
//     the paper's Figures 7 and 8).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "protocols/static_mapping.h"

namespace vod {

class NpbMapping final : public StaticMapping {
 public:
  // Builds a k-stream mapping for n segments; nullopt when the packer runs
  // out of progressions before placing all n segments.
  static std::optional<NpbMapping> build(int streams, int num_segments);

  int streams() const override { return streams_; }
  int num_segments() const override { return n_; }
  Segment segment_at(int stream, Slot slot) const override;
  // Least common multiple of all strides, saturated at 2^62 when the exact
  // cycle is astronomically long (use validate() instead of the generic
  // horizon validator in that case).
  Slot cycle_length() const override { return cycle_len_; }

  // Transmission period of segment j (its stride).
  Slot period_of(Segment j) const;

  // Largest transmission period among the segments stream k carries (0
  // when it carries none): how long a client admitted to the broadcast can
  // still need that stream.
  Slot stream_max_period(int k) const {
    return stream_max_period_[static_cast<size_t>(k)];
  }

  // Analytic validation: strides within deadlines, residue classes disjoint
  // per stream, every segment placed exactly once.
  MappingValidation validate() const;

  // Largest n the packer fits on k streams. Cached per k; safe to call
  // from any thread.
  static int capacity(int streams);
  // Smallest k that carries n segments.
  static int streams_for(int num_segments);
  // Harmonic necessary condition: max n with H_n <= k; an upper bound on
  // ANY fixed-segment equal-bandwidth protocol, NPB included.
  static int harmonic_capacity(int streams);

 private:
  struct Entry {
    Segment segment = 0;
    Slot stride = 0;  // transmission period
    Slot offset = 0;  // slots with (slot-1) % stride == offset carry it
  };

  NpbMapping() = default;

  // Entries of stream k, in placement order (CSR row view over entries_).
  const Entry* stream_begin(int k) const {
    return entries_.data() + stream_offsets_[static_cast<size_t>(k)];
  }
  const Entry* stream_end(int k) const {
    return entries_.data() + stream_offsets_[static_cast<size_t>(k) + 1];
  }

  int streams_ = 0;
  int n_ = 0;
  Slot cycle_len_ = 1;
  // Per-stream entries in CSR form (DESIGN.md §14): stream k's entries are
  // entries_[stream_offsets_[k] .. stream_offsets_[k+1]), flattened once at
  // the end of build() — the mapping is immutable afterwards, so segment_at
  // probes one contiguous run instead of chasing a nested vector.
  std::vector<int> stream_offsets_;  // [streams_ + 1]
  std::vector<Entry> entries_;       // all placements, grouped by stream
  std::vector<Slot> period_;         // period_[j] = stride of S_j
  std::vector<Slot> stream_max_period_;  // [streams_]: largest stride on k
};

}  // namespace vod
