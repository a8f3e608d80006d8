// Generic on-demand ("dynamic") variant of ANY static broadcasting
// protocol.
//
// Given a periodic StaticMapping, the on-demand server performs a
// scheduled transmission of segment S_m at slot t only when at least one
// active client needs it — i.e. when some request arrived at or after
// S_m's previous scheduled occurrence, because that client takes the first
// occurrence after its arrival. This single rule, and this one driver,
// instantiates the family the paper discusses:
//
//   * on-demand FB        = the UD protocol (§2, [17]), run over
//     FbMapping(n); ud.h holds the closed form the tests check it against;
//   * on-demand NPB       = the dynamic NPB the authors tried first (§3),
//     run over the NPB mapping; as the paper found, it lags both UD and
//     stream tapping below ~40-60 requests/hour;
//   * on-demand SB        = a dynamic-skyscraper (DSB, Eager & Vernon)
//     stand-in: same mapping, same 2-stream client property, without DSB's
//     cluster re-phasing (documented simplification — it only makes our
//     DSB *less* efficient at low rates, never better, so comparisons
//     against it remain conservative).
//
// Bandwidth can never exceed the mapping's stream count, and every client
// still meets its deadlines because performed occurrences are exactly the
// first-after-arrival ones the pinwheel property covers.
#pragma once

#include "core/dhb_simulator.h"
#include "protocols/static_mapping.h"
#include "sim/arrival_process.h"

namespace vod {

// Runs the on-demand variant of `mapping` under Poisson arrivals from the
// config (or a caller-supplied arrival process).
SlottedSimResult run_on_demand_simulation(const StaticMapping& mapping,
                                          const SlottedSimConfig& sim);
SlottedSimResult run_on_demand_simulation(const StaticMapping& mapping,
                                          const SlottedSimConfig& sim,
                                          ArrivalProcess& arrivals);

}  // namespace vod
