// Early departure — what DHB's never-cancel rule costs when viewers leave.
//
// DHB schedules a client's entire suffix at admission and never cancels a
// transmission, so a viewer who quits after L segments still leaves the
// tail of fresh instances on the wire. This bench quantifies the waste:
//
//   standard — every viewer admitted with on_request() (schedules all n);
//   oracle   — every viewer declares its (geometric, mean half the video)
//              watch length and is admitted with on_range(1, L): exactly
//              the transmissions some viewer actually consumes.
//
// The gap is an upper bound on what a cancellation or lazy-scheduling
// extension could recover. Expected shape: small at low rates (isolated
// viewers waste their own tails) converging toward zero at saturation
// (whatever the quitter scheduled, later arrivals share anyway).
#include "bench_common.h"

#include <cstdio>

#include "core/dhb.h"
#include "sim/random.h"
#include "util/table.h"

namespace {

using namespace vod;

double run(double rate, bool oracle, uint64_t seed) {
  const int n = 99;
  const double d = 7200.0 / 99.0;
  DhbConfig config;
  DhbScheduler scheduler(config);
  // Substream discipline (vod-rng-discipline): fork one named stream
  // per purpose up front and never draw from the parent afterwards.
  // Drawing arrivals straight from the parent (the previous shape)
  // entangles the arrival stream with every other parent use, so adding
  // a draw anywhere re-times all arrivals behind it; named forks keep
  // each stream a pure function of (seed, stream_id).
  Rng parent(seed);
  Rng lengths = parent.fork(1);
  Rng arrivals = parent.fork(2);
  const double per_slot = rate / 3600.0 * d;

  const int warmup = 500, measured = 10000;
  uint64_t transmissions = 0;
  for (int step = 0; step < warmup + measured; ++step) {
    const auto tx = scheduler.advance_slot_view();
    if (step >= warmup) transmissions += tx.size();
    for (uint64_t a = arrivals.poisson(per_slot); a > 0; --a) {
      // Geometric watch length, mean ~ n/2, clamped to [1, n].
      const Segment len = static_cast<Segment>(std::min<uint64_t>(
          1 + lengths.geometric(2.0 / static_cast<double>(n)),
          static_cast<uint64_t>(n)));
      if (oracle) {
        scheduler.on_range(1, len);
      } else {
        scheduler.on_request();
      }
    }
  }
  return static_cast<double>(transmissions) / static_cast<double>(measured);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vod::bench;

  // The runs step a DhbScheduler directly, outside the simulation loops
  // that record observations, so the bench takes no flags.
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s\n", argv[0]);
    return 2;
  }

  print_header("Early departure: never-cancel waste (99 segments)",
               "viewers watch a geometric length, mean ~half the video");

  vod::Table table({"req/h", "standard DHB", "oracle (declared)",
                    "waste %"});
  for (const double rate : {2.0, 10.0, 50.0, 200.0, 1000.0}) {
    const double standard = run(rate, false, 20010416);
    const double oracle = run(rate, true, 20010416);
    table.add_numeric_row(
        {rate, standard, oracle, 100.0 * (standard - oracle) / standard}, 2);
  }
  table.print();

  std::printf(
      "\nShape checks: the waste of scheduling whole suffixes for viewers\n"
      "who leave early shrinks with load — at saturation later arrivals\n"
      "share the quitter's tail anyway, so DHB's never-cancel simplicity\n"
      "costs little exactly where bandwidth matters most.\n");
  return 0;
}
