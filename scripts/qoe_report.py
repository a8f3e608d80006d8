#!/usr/bin/env python3
"""Renders the QoE / SLO JSONL artifacts as a table and verdicts.

Input is any mix of files produced by --qoe-out / --slo-out (vodsim, the
bench binaries) and violation dumps; lines are dispatched by their "kind"
field, so one file or many works the same. Output:

* a QoE table — one row per "qoe" line (a run's one QoE stream): requests,
  admissions, startup-wait p50/p99, continuity;
* SLO verdicts — one per "slo" line: MET/VIOLATED, bad fraction vs budget,
  burn-rate window breaches and fast+slow alerts;
* a flight-recorder digest — decisions retained, commits, dwell-blocked
  moves, and any violation dumps present.

Exit status: 0 on success, 1 on malformed input; with --strict also 1 when
any reported SLO is violated (the CI gate mode).

Usage:
  scripts/qoe_report.py [--strict] FILE [FILE...]
  scripts/qoe_report.py --self-test
"""

import json
import sys


def fail(msg):
    sys.exit(f"qoe_report: {msg}")


def load(paths):
    """(path, line) pairs of qoe and slo lines, plus decisions and dumps."""
    qoes = []       # (path, qoe line)
    slos = []       # (path, slo line)
    decisions = []  # decision lines
    violations = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as f:
                lines = f.read().splitlines()
        except OSError as e:
            fail(str(e))
        for no, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{no}: invalid JSON: {e}")
            kind = obj.get("kind")
            if kind == "qoe":
                qoes.append((path, obj))
            elif kind == "slo":
                slos.append((path, obj))
            elif kind == "decision":
                decisions.append(obj)
            elif kind in ("violation", "qoe_sample"):
                violations.append(obj)
            # Metric snapshot kinds in the same file are not an error —
            # the report just has nothing to say about them.
    return qoes, slos, decisions, violations


def render(qoes, slos, decisions, violations, out=sys.stdout):
    all_met = True
    w = out.write
    if qoes:
        w("QoE\n")
        w(f"  {'requests':>9} {'admissions':>10} {'wait p50':>9} "
          f"{'wait p99':>9} {'continuity':>10}  file\n")
        for path, q in qoes:
            w(f"  {q['requests']:>9} {q['admissions']:>10} "
              f"{q['wait_p50']:>9.2f} {q['wait_p99']:>9.2f} "
              f"{q['continuity']:>10.6f}  {path}\n")
    else:
        w("QoE: no qoe lines in input\n")
    if slos:
        w("\nSLO verdicts\n")
        for path, s in slos:
            verdict = "MET     " if s["met"] else "VIOLATED"
            all_met = all_met and s["met"]
            w(f"  {s['objective']:<13} {verdict} "
              f"bad {s['bad']}/{s['total']} "
              f"({s['bad_fraction']:.6f} of budget {s['budget']}) "
              f"windows fast {s['fast_breached']}/{s['fast_windows']} "
              f"slow {s['slow_breached']}/{s['slow_windows']} "
              f"alerts {s['alerts']}  {path}\n")
    if decisions:
        commits = sum(1 for d in decisions if d["committed"])
        blocked = sum(1 for d in decisions if d["dwell_blocked"])
        videos = len({d["video"] for d in decisions})
        w(f"\nflight recorder: {len(decisions)} decisions across {videos} "
          f"videos — {commits} committed, {blocked} dwell-blocked\n")
    dumps = [v for v in violations if v.get("kind") == "violation"]
    if dumps:
        w(f"\nVIOLATION DUMPS: {len(dumps)}\n")
        for v in dumps:
            w(f"  {v['file']}:{v['line']}: {v['expr']} — {v['msg']}\n")
        all_met = False
    return all_met


def self_test():
    """Renders synthetic lines and checks the rows and the verdicts."""
    import io
    qoe = {"kind": "qoe", "admissions": 3, "requests": 4, "segments": 40,
           "late_segments": 4, "continuity": 0.9, "wait_p50": 0.5,
           "wait_p99": 1.0, "wait_count": 4, "wait_sum": 2, "wait_lo": 0,
           "wait_bin_width": 0.0625, "wait_bins": [3, 1], "exemplars": []}
    slo = {"kind": "slo", "objective": "startup_wait", "target": 8,
           "budget": 0.01, "total": 90, "bad": 0, "bad_fraction": 0.0,
           "met": True, "fast_window_slots": 64, "fast_windows": 2,
           "fast_breached": 0, "fast_max_burn": 0.0,
           "slow_window_slots": 512, "slow_windows": 1, "slow_breached": 0,
           "slow_max_burn": 0.0, "alerts": 0}
    bad = dict(slo, objective="continuity", total=10, bad=5,
               bad_fraction=0.5, met=False, fast_breached=2,
               fast_max_burn=50.0, alerts=1)

    sink = io.StringIO()
    if not render([("a.jsonl", qoe)], [("a.jsonl", slo)], [], [], out=sink):
        return "render reported a violation for a met SLO"
    text = sink.getvalue()
    for token in ("        4          3      0.50      1.00   0.900000  "
                  "a.jsonl", "startup_wait  MET"):
        if token not in text:
            return f"render output missing {token!r}"

    sink = io.StringIO()
    ok = render([("a.jsonl", qoe), ("b.jsonl", qoe)],
                [("a.jsonl", slo), ("a.jsonl", bad)],
                [{"kind": "decision", "video": 0, "committed": True,
                  "dwell_blocked": False}],
                [{"kind": "violation", "file": "f.cc", "line": 1,
                  "expr": "x", "msg": "m"}], out=sink)
    if ok:
        return "render ignored a violated SLO / violation dump"
    text = sink.getvalue()
    if text.count("a.jsonl\n") != 3 or text.count("b.jsonl\n") != 1:
        return "render did not print one row per qoe and slo line"
    for token in ("continuity    VIOLATED bad 5/10", "alerts 1",
                  "flight recorder: 1 decisions", "VIOLATION DUMPS: 1"):
        if token not in text:
            return f"render output missing {token!r}"
    return None


def main(argv):
    args = argv[1:]
    if args == ["--self-test"]:
        err = self_test()
        if err:
            sys.exit(f"qoe_report self-test: {err}")
        print("qoe_report: self-test ok")
        return 0
    strict = "--strict" in args
    paths = [a for a in args if a != "--strict"]
    if not paths:
        sys.exit(__doc__)
    qoes, slos, decisions, violations = load(paths)
    all_met = render(qoes, slos, decisions, violations)
    return 0 if all_met or not strict else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
