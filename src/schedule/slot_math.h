// Audited slot arithmetic: modular slot math and horizon conversion.
//
// The ring wrap-seam bug class (DESIGN.md §9, §12): composing a slot
// window onto a modular ring by hand is exactly the arithmetic that broke
// LoadIndex's wrap-seam composition once, and the periodic broadcast
// mappings (FB / SB / NPB) repeat the same `(slot - 1) % cycle` idiom in
// every segment_at(). These helpers are the one approved home for that
// arithmetic: they normalize the 1-based slot convention (types.h), they
// are defined for every stride >= 1, and congruence handles negative
// differences correctly (C++ `%` truncates toward zero, so a raw
// `(a - b) % m == r` comparison is wrong for a < b and r > 0).
//
// The vod-raw-slot-modulo clang-tidy check (tools/vod_tidy) flags raw `%`
// on slot/segment expressions everywhere outside this header and the
// SlotSchedule/LoadIndex ring internals; new modular slot math goes here,
// with unit coverage in tests/slot_math_test.cc.
//
// horizon_slots() is the one conversion from simulated hours to a slot
// count; every slotted driver takes its warm-up and measured horizons
// through it (SlotHorizon, schedule/slot_loop.h), so a hostile horizon
// fails one check instead of reaching an out-of-range float-to-integer
// cast.
#pragma once

#include <cmath>
#include <cstdint>

#include "schedule/types.h"
#include "util/check.h"

namespace vod {

// 0-based position of 1-based `slot` inside a repeating cycle of length
// `cycle`: slot 1 -> 0, slot cycle -> cycle - 1, slot cycle + 1 -> 0.
// The phase every periodic mapping's segment_at() is built on.
constexpr Slot cycle_phase(Slot slot, Slot cycle) {
  VOD_DCHECK(slot >= 1);
  VOD_DCHECK(cycle >= 1);
  return (slot - 1) % cycle;
}

// True when 1-based `slot` lies on the arithmetic progression with the
// given stride and 0-based offset (offset in [0, stride)): the slots
// carrying one NPB progression entry.
constexpr bool stride_hits(Slot slot, Slot stride, Slot offset) {
  VOD_DCHECK(offset >= 0 && offset < stride);
  return cycle_phase(slot, stride) == offset;
}

// True when a ≡ b (mod m), for any signs of a and b. Two progressions on
// one stream collide iff their offsets are congruent modulo gcd(strides).
constexpr bool congruent_mod(Slot a, Slot b, Slot m) {
  VOD_DCHECK(m >= 1);
  return (a - b) % m == 0;  // r == 0 is sign-safe: m | (a-b) iff remainder 0
}

// The longest horizon a slotted driver accepts: 2^32 slots, about 9,900
// years of the paper's 72.7-s slots. Anything longer is a mistyped or
// hostile input rather than an experiment. The bound keeps the conversion
// below inside uint64_t and the sum of a warm-up and a measured horizon
// far from overflow.
inline constexpr uint64_t kMaxHorizonSlots = uint64_t{1} << 32;

// True when `hours` is finite and non-negative and spans at most
// kMaxHorizonSlots slots of `slot_duration_s` seconds (which must be
// positive). The check horizon_slots() enforces, for callers that reject
// bad input without aborting.
inline bool horizon_fits(double hours, double slot_duration_s) {
  return std::isfinite(hours) && hours >= 0.0 && slot_duration_s > 0.0 &&
         std::ceil(hours * 3600.0 / slot_duration_s) <=
             static_cast<double>(kMaxHorizonSlots);
}

// Slots needed to cover `hours` of simulated time, rounded up.
inline uint64_t horizon_slots(double hours, double slot_duration_s) {
  VOD_CHECK_MSG(horizon_fits(hours, slot_duration_s),
                "horizon must be finite, non-negative and at most "
                "kMaxHorizonSlots slots");
  return static_cast<uint64_t>(std::ceil(hours * 3600.0 / slot_duration_s));
}

}  // namespace vod
