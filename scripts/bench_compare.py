#!/usr/bin/env python3
"""Regression guard for the committed benchmark records.

Dispatches on the JSON "benchmark" tag of the two input files:

admission_throughput — compares a fresh BENCH_admission.json against the
committed baseline and fails (exit 1) when the fast admission path
regressed. Two metrics, two thresholds:

* work_ratio (naive work-units-per-request / fast work-units-per-request),
  guarded tightly (default 20% max drop). Both sides are deterministic
  counters over a fixed-length trace, so the ratio is bit-reproducible on
  every machine: it moves if and only if the algorithm itself changed
  (e.g. the placement index or same-slot coalescing stopped engaging).
  Any drop beyond the threshold is a real regression, never runner noise.

* speedup (fast wall-clock requests/sec / naive requests/sec of the same
  binary on the same machine), guarded loosely (default 50% max drop).
  The ratio cancels absolute machine speed but still jitters on shared CI
  runners; the loose bound catches gross constant-factor regressions
  (e.g. an accidentally quadratic index update) without flaking.

observability_overhead — guards the instrumentation layer's two promises
(DESIGN.md §10). Checks applied to BENCH_observability.json pairs:

* determinism: both runs must report bit_identical_across_sinks, and the
  per-point FNV checksums must match exactly between the two files. The
  checksums are deterministic functions of the admission algorithm on a
  fixed trace, so this holds across machines AND across VOD_OBSERVE
  build modes — tracing on, off, or compiled out must never change what
  the simulation does.

* event volume: trace events recorded over the fixed-length identity run
  must stay O(slots), not O(requests) — at most a few events per slot.
  This is the deterministic half of the overhead budget: it proves no
  per-request instrumentation crept into the admission inner loop, and it
  is bit-reproducible everywhere.

* overhead: when exactly one of the two files comes from a VOD_OBSERVE=OFF
  build ("observe_compiled": false), the ON build's nosink requests/sec
  must be within --max-overhead (default 2%) of the OFF build's — the
  disabled-instrumentation budget, measured on the same machine. Either
  side may be a comma-separated list of result files from alternating
  invocations ("on1.json,on2.json,on3.json"); per-point throughputs then
  merge best-of, which is how a wall-clock budget this tight survives
  shared-runner noise (single invocations jitter by ±10%, the best of a
  few alternated runs by ~1%). Checksums must agree across every listed
  file. When both sides are ON builds (baseline vs fresh), the in-binary
  metrics/full sink overheads are guarded by a loose absolute cap
  (--max-sink-overhead, default 50%) that catches gross hot-path
  regressions without flaking. Negative overheads — a sink run timing
  faster than no sink — are physically meaningless noise: they are
  flagged, judged as zero, and clamped to zero in best-of merges so a
  baseline never encodes noise as a speedup.

adaptive_switching — guards the per-video protocol-switching controller
(DESIGN.md §13). Checks applied to BENCH_adaptive.json pairs:

* invariants, re-checked from BOTH files: the migration gap audit must be
  clean (gap_violations == 0 on every point), the adaptive engine run
  must be bit-identical across every recorded thread count, and the
  QoE-observed re-run must carry the same checksum (qoe_write_only — the
  QoE/SLO layer never feeds back into the simulation).

* policy quality, per point: frontier_ratio (adaptive provisioned
  bandwidth over the per-video best static pin) must stay at or below
  --max-frontier-ratio (default 1.05), and worst_pin_ratio (adaptive over
  the worst uniform pin) at or below --max-worst-pin-ratio (default 0.80).
  Both sides are deterministic window-peak means over a fixed seed, so
  any breach is a real controller regression, never runner noise.

* determinism: the per-point FNV checksums (folded over every per-video
  provisioned/request/switch figure) must match exactly between the two
  files on shared points — the smoke point reruns the committed mid
  workload in full, so CI replays it bit-for-bit.

multi_video_scale — guards the sharded multi-video engine and the
data-oriented slot kernel under it (DESIGN.md §14). Checks applied to
BENCH_multi_video.json pairs:

* determinism, re-checked from BOTH files: every point must be
  bit-identical across its recorded thread counts, and the per-point FNV
  checksums (folded over requests, measured slots, and every per-slot /
  per-video aggregate) must match exactly between the two files on shared
  (catalog, threads) points. The checksums are deterministic functions of
  the workload on a fixed seed, so any divergence means the slab kernel,
  the coalesced admission path, or the shard merge changed semantics —
  never runner noise.

* throughput: slots/sec per shared point is guarded by a loose wall-clock
  threshold (--max-drop-speedup, default 50%) that catches gross
  constant-factor regressions (an accidental re-layout per slot, a lost
  zero-allocation path) without flaking on shared runners.

Only points present in BOTH inputs (matched on (segments, arrivals_per_slot)
for the admission/observability/adaptive records, on (catalog, threads) for
multi_video_scale) are compared, so a smoke run's subset checks cleanly
against the committed full-grid baseline.

Usage:
  scripts/bench_compare.py BASELINE CURRENT
                           [--max-drop 0.20] [--max-drop-speedup 0.50]
                           [--max-overhead 0.02] [--max-sink-overhead 0.50]
                           [--max-frontier-ratio 1.05]
                           [--max-worst-pin-ratio 0.80]
"""

import argparse
import json
import sys

KNOWN = ("admission_throughput", "observability_overhead",
         "adaptive_switching", "multi_video_scale")

# Ceiling on trace events per slot of the identity run. The instrumented
# paths emit a constant handful per slot/batch (one admission outcome, one
# coalescing record, and a streams counter where one loop steps a single
# scheduler); anything near the arrival rate means a macro landed in the
# per-request inner loop.
MAX_EVENTS_PER_SLOT = 8.0

# Best-of merge across alternating invocations; overheads are recomputed
# from the merged throughputs.
RPS_FIELDS = ("nosink_rps", "metrics_rps", "full_rps")


def load_one(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("benchmark") not in KNOWN:
        sys.exit(f"{path}: unknown benchmark tag {doc.get('benchmark')!r}")
    points = {}
    for p in doc.get("points", []):
        if doc["benchmark"] == "multi_video_scale":
            key = (int(p["catalog"]), int(p["threads"]))
        else:
            key = (int(p["segments"]), float(p["arrivals_per_slot"]))
        points[key] = p
    if not points:
        sys.exit(f"{path}: no benchmark points")
    return doc, points


def load_points(arg):
    """Loads one file, or merges a comma-separated list best-of."""
    paths = [p for p in arg.split(",") if p]
    doc, points = load_one(paths[0])
    for path in paths[1:]:
        if doc["benchmark"] != "observability_overhead":
            sys.exit(f"{arg}: file lists are only supported for "
                     "observability_overhead records")
        more_doc, more = load_one(path)
        if more_doc.get("observe_compiled") != doc.get("observe_compiled"):
            sys.exit(f"{path}: observe_compiled differs within one list")
        doc["bit_identical_across_sinks"] = (
            doc.get("bit_identical_across_sinks", True)
            and more_doc.get("bit_identical_across_sinks", True))
        for key, p in more.items():
            if key not in points:
                points[key] = p
                continue
            have = points[key]
            if int(have["checksum"]) != int(p["checksum"]):
                sys.exit(f"{path}: checksum diverges at {key} within the "
                         "file list — runs are not deterministic")
            have["identical"] = (have.get("identical", True)
                                 and p.get("identical", True))
            for field in RPS_FIELDS:
                have[field] = max(float(have[field]), float(p[field]))
    if len(paths) > 1:
        for p in points.values():
            nosink = float(p["nosink_rps"])
            # Clamp at zero: a sink run cannot truly be faster than no
            # sink, so a negative ratio is timing noise and must not be
            # merged into a baseline as if it were a real speedup.
            p["metrics_overhead"] = max(
                0.0, 1.0 - float(p["metrics_rps"]) / nosink)
            p["full_overhead"] = max(
                0.0, 1.0 - float(p["full_rps"]) / nosink)
    return doc, points


def compare_metric(name, base, cur, shared, max_drop):
    failures = []
    print(f"metric {name}: max tolerated drop {max_drop:.0%}")
    for key in shared:
        if name not in base[key] or name not in cur[key]:
            print(f"  segments={key[0]:>5} rate={key[1]:>6.2f}  (missing)")
            continue
        want = float(base[key][name])
        got = float(cur[key][name])
        drop = 0.0 if want <= 0 else (want - got) / want
        status = "ok"
        if drop > max_drop:
            status = "REGRESSION"
            failures.append(key)
        print(f"  segments={key[0]:>5} rate={key[1]:>6.2f}  "
              f"baseline={want:10.3f}  current={got:10.3f}  "
              f"drop={drop:+7.1%}  {status}")
    return failures


def compare_admission(base_doc, base, cur_doc, cur, shared, args):
    del base_doc  # baseline identity was checked when it was committed
    if not cur_doc.get("bit_identical_fast_vs_naive", True):
        sys.exit("current run: fast vs naive modes diverged")
    for key, p in cur.items():
        if not p.get("identical", True):
            sys.exit(f"current run: modes diverged at {key}")

    failures = compare_metric("work_ratio", base, cur, shared, args.max_drop)
    failures += compare_metric("speedup", base, cur, shared,
                               args.max_drop_speedup)
    return failures


def compare_observability(base_doc, base, cur_doc, cur, shared, args):
    for path_doc, points, label in ((base_doc, base, "baseline"),
                                    (cur_doc, cur, "current")):
        if not path_doc.get("bit_identical_across_sinks", True):
            sys.exit(f"{label} run: sink modes diverged")
        for key, p in points.items():
            if not p.get("identical", True):
                sys.exit(f"{label} run: sink modes diverged at {key}")

    failures = []
    print("determinism: per-point checksums must match exactly")
    for key in shared:
        want = int(base[key]["checksum"])
        got = int(cur[key]["checksum"])
        status = "ok" if want == got else "DIVERGED"
        if want != got:
            failures.append(key)
        print(f"  segments={key[0]:>5} rate={key[1]:>6.2f}  "
              f"baseline={want:20d}  current={got:20d}  {status}")

    print(f"event volume: at most {MAX_EVENTS_PER_SLOT:.0f} trace events "
          "per identity slot")
    for doc, points, label in ((base_doc, base, "baseline"),
                               (cur_doc, cur, "current")):
        slots = float(doc.get("identity_slots", 0))
        if slots <= 0 or not doc.get("observe_compiled", True):
            continue  # OFF builds record no events
        for key in sorted(points):
            per_slot = float(points[key].get("trace_events", 0)) / slots
            status = "ok"
            if per_slot > MAX_EVENTS_PER_SLOT:
                status = "PER-REQUEST INSTRUMENTATION?"
                failures.append(key)
            print(f"  {label:>8} segments={key[0]:>5} rate={key[1]:>6.2f}  "
                  f"{per_slot:6.2f} events/slot  {status}")

    base_on = bool(base_doc.get("observe_compiled", True))
    cur_on = bool(cur_doc.get("observe_compiled", True))
    if base_on != cur_on:
        # Paired ON vs OFF builds, same machine: the disabled-
        # instrumentation budget. Overhead is what the ON build loses.
        on, off = (base, cur) if base_on else (cur, base)
        print(f"overhead: ON-build nosink throughput within "
              f"{args.max_overhead:.1%} of the OFF build")
        for key in shared:
            on_rps = float(on[key]["nosink_rps"])
            off_rps = float(off[key]["nosink_rps"])
            loss = 0.0 if off_rps <= 0 else 1.0 - on_rps / off_rps
            status = "ok"
            if loss > args.max_overhead:
                status = "OVER BUDGET"
                failures.append(key)
            print(f"  segments={key[0]:>5} rate={key[1]:>6.2f}  "
                  f"off={off_rps:12.1f} req/s  on={on_rps:12.1f} req/s  "
                  f"overhead={loss:+7.2%}  {status}")
    else:
        print(f"overhead: in-binary sink overheads capped at "
              f"{args.max_sink_overhead:.0%} (both files are "
              f"{'ON' if cur_on else 'OFF'} builds)")
        for key in shared:
            for name in ("metrics_overhead", "full_overhead"):
                raw = float(cur[key][name])
                # A negative overhead is noise (the sink run timed faster
                # than no sink, which cannot be real work saved); flag it
                # and judge the clamped value.
                got = max(0.0, raw)
                status = "ok" if raw >= 0.0 else "ok (noise, clamped to 0)"
                if got > args.max_sink_overhead:
                    status = "OVER BUDGET"
                    failures.append(key)
                print(f"  segments={key[0]:>5} rate={key[1]:>6.2f}  "
                      f"{name}={raw:+7.2%}  {status}")
    return failures


def compare_adaptive(base_doc, base, cur_doc, cur, shared, args):
    for doc, points, label in ((base_doc, base, "baseline"),
                               (cur_doc, cur, "current")):
        if not doc.get("bit_identical_across_threads", True):
            sys.exit(f"{label} run: thread counts diverged")
        if not doc.get("gap_free", True):
            sys.exit(f"{label} run: migration gap audit failed")
        for key, p in points.items():
            if not p.get("bit_identical", True):
                sys.exit(f"{label} run: thread counts diverged at {key}")
            if not p.get("qoe_write_only", True):
                sys.exit(f"{label} run: QoE observer changed the "
                         f"simulation at {key}")
            if int(p.get("gap_violations", 0)) != 0:
                sys.exit(f"{label} run: playback gaps at {key}")
            if int(p.get("gap_transitions", 1)) == 0:
                sys.exit(f"{label} run: gap audit saw no transitions at "
                         f"{key} — the controller is inert")

    failures = []
    print(f"policy quality: frontier ratio <= {args.max_frontier_ratio:.2f}, "
          f"worst-pin ratio <= {args.max_worst_pin_ratio:.2f}")
    for points, label in ((base, "baseline"), (cur, "current")):
        for key in sorted(points):
            frontier = float(points[key]["frontier_ratio"])
            worst = float(points[key]["worst_pin_ratio"])
            status = "ok"
            if frontier > args.max_frontier_ratio:
                status = "ABOVE FRONTIER BUDGET"
                failures.append(key)
            if worst > args.max_worst_pin_ratio:
                status = "TOO CLOSE TO WORST PIN"
                failures.append(key)
            print(f"  {label:>8} segments={key[0]:>5} rate={key[1]:>6.2f}  "
                  f"frontier={frontier:6.3f}  worst-pin={worst:6.3f}  "
                  f"{status}")

    print("determinism: per-point checksums must match exactly")
    for key in shared:
        want = int(base[key]["checksum"])
        got = int(cur[key]["checksum"])
        status = "ok" if want == got else "DIVERGED"
        if want != got:
            failures.append(key)
        print(f"  segments={key[0]:>5} rate={key[1]:>6.2f}  "
              f"baseline={want:20d}  current={got:20d}  {status}")
    return failures


def compare_multi_video(base_doc, base, cur_doc, cur, shared, args):
    for doc, points, label in ((base_doc, base, "baseline"),
                               (cur_doc, cur, "current")):
        if not doc.get("bit_identical_across_threads", True):
            sys.exit(f"{label} run: thread counts diverged")
        for key, p in points.items():
            if not p.get("identical", True):
                sys.exit(f"{label} run: thread counts diverged at {key}")

    failures = []
    print("determinism: per-point checksums must match exactly")
    for key in shared:
        want = int(base[key]["checksum"])
        got = int(cur[key]["checksum"])
        status = "ok" if want == got else "DIVERGED"
        if want != got:
            failures.append(key)
        print(f"  catalog={key[0]:>6} threads={key[1]:>2}  "
              f"baseline={want:20d}  current={got:20d}  {status}")

    print(f"throughput: slots/sec drop capped at "
          f"{args.max_drop_speedup:.0%} (loose wall-clock guard)")
    for key in shared:
        want = float(base[key]["slots_per_sec"])
        got = float(cur[key]["slots_per_sec"])
        drop = 0.0 if want <= 0 else (want - got) / want
        status = "ok"
        if drop > args.max_drop_speedup:
            status = "REGRESSION"
            failures.append(key)
        print(f"  catalog={key[0]:>6} threads={key[1]:>2}  "
              f"baseline={want:14.1f}  current={got:14.1f}  "
              f"drop={drop:+7.1%}  {status}")
    return failures


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline", help="committed BENCH_*.json")
    ap.add_argument("current", help="freshly produced BENCH_*.json")
    ap.add_argument(
        "--max-drop",
        type=float,
        default=0.20,
        help="max fractional drop of the deterministic work_ratio (0.20)",
    )
    ap.add_argument(
        "--max-drop-speedup",
        type=float,
        default=0.50,
        help="max fractional drop of the wall-clock speedup (0.50)",
    )
    ap.add_argument(
        "--max-overhead",
        type=float,
        default=0.02,
        help="disabled-instrumentation budget: max throughput the "
             "VOD_OBSERVE=ON build may lose vs the OFF build (0.02)",
    )
    ap.add_argument(
        "--max-sink-overhead",
        type=float,
        default=0.50,
        help="loose cap on the in-binary metrics/full sink overheads (0.50)",
    )
    ap.add_argument(
        "--max-frontier-ratio",
        type=float,
        default=1.05,
        help="adaptive provisioned bandwidth over the per-video best "
             "static pin (1.05)",
    )
    ap.add_argument(
        "--max-worst-pin-ratio",
        type=float,
        default=0.80,
        help="adaptive provisioned bandwidth over the worst uniform "
             "pin (0.80)",
    )
    args = ap.parse_args()

    base_doc, base = load_points(args.baseline)
    cur_doc, cur = load_points(args.current)
    if base_doc["benchmark"] != cur_doc["benchmark"]:
        sys.exit(f"benchmark mismatch: {base_doc['benchmark']} vs "
                 f"{cur_doc['benchmark']}")

    shared = sorted(set(base) & set(cur))
    if not shared:
        sys.exit("no common (segments, arrivals_per_slot) points to compare")
    print(f"comparing {len(shared)} common point(s) "
          f"[{base_doc['benchmark']}]")

    if base_doc["benchmark"] == "admission_throughput":
        failures = compare_admission(base_doc, base, cur_doc, cur, shared,
                                     args)
    elif base_doc["benchmark"] == "adaptive_switching":
        failures = compare_adaptive(base_doc, base, cur_doc, cur, shared,
                                    args)
    elif base_doc["benchmark"] == "multi_video_scale":
        failures = compare_multi_video(base_doc, base, cur_doc, cur, shared,
                                       args)
    else:
        failures = compare_observability(base_doc, base, cur_doc, cur,
                                         shared, args)

    if failures:
        failures = sorted(set(failures))
        print(f"FAIL: {len(failures)} regressed point(s): {failures}")
        return 1
    print("PASS: no regression beyond thresholds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
