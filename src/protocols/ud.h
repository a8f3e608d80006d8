// The Universal Distribution protocol (paper §2; Pâris, Carter & Long,
// ICME 2000), modelled as the DHB paper describes it: a dynamic
// broadcasting protocol based on FB in which "segments are transmitted
// only on demand", saturating to conventional FB at high arrival rates.
//
// UD is the on-demand variant of the generalized FB mapping, so it runs as
// run_on_demand_simulation(FbMapping(n), sim) (on_demand.h). A client
// arriving during slot a takes, for every segment, the first FB occurrence
// after a; stream j's occurrence of its segment at slot t is therefore
// needed iff some request arrived during the preceding rotation period of
// that stream. This yields the closed form
//
//     E[bandwidth] = sum_j (1 - exp(-lambda * d * len_j)),
//
// which the tests check the simulation against — and which converges to
// lambda*D as lambda -> 0 and to FB's k streams as lambda -> infinity,
// matching both limits the paper quotes for UD.
#pragma once

#include "schedule/types.h"

namespace vod {

// Closed-form expected bandwidth of UD (units of b) at the given rate.
double ud_expected_bandwidth(const VideoParams& video,
                             double requests_per_hour);

}  // namespace vod
