#!/usr/bin/env python3
"""Well-formedness checker for the observability exporters' outputs.

Validates files produced by --trace-out / --metrics-out (vodsim and the
bench binaries) and fails (exit 1) on the first malformed construct, so CI
catches exporter drift with real end-to-end artifacts instead of unit
fixtures. Dispatch is by extension:

* .json  — Chrome trace-event JSON (chrome://tracing, Perfetto). Checks
  the top-level envelope, the process-name metadata for the two clock
  domains (pid 1 slot time, pid 2 wall clock), and every event's phase,
  timestamps, and args. Slot-domain timestamps must be whole slots
  (integer microseconds, 1 slot = 1000 us). Chrome keys a counter track
  by (pid, name), so two samples of one counter at the same (pid, name,
  ts) would overwrite each other on one track: rejected.
* .jsonl — self-describing JSON objects, one per line: metric snapshots
  (counter/gauge/histogram), QoE groups ("qoe", with exemplar/bin
  coherence), SLO burn-rate verdicts ("slo"), flight-recorder decisions
  ("decision"), and violation-dump records ("violation"/"qoe_sample").
  Unknown kinds fail, so exporter drift cannot slip past CI.

Usage:
  scripts/validate_trace.py FILE [FILE...]
"""

import json
import sys


def fail(path, msg):
    sys.exit(f"{path}: {msg}")


def validate_chrome_trace(path):
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(path, f"invalid JSON: {e}")
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(path, "missing traceEvents envelope")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail(path, "traceEvents empty or not an array")
    if doc.get("displayTimeUnit") != "ms":
        fail(path, "displayTimeUnit must be 'ms'")

    named_pids = {}
    counts = {"X": 0, "i": 0, "C": 0, "M": 0}
    counter_samples = set()  # (pid, name, ts)
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(e, dict):
            fail(path, f"{where}: not an object")
        ph = e.get("ph")
        if ph not in counts:
            fail(path, f"{where}: unknown phase {ph!r}")
        counts[ph] += 1
        if not isinstance(e.get("name"), str) or not e["name"]:
            fail(path, f"{where}: missing event name")
        if not isinstance(e.get("pid"), int):
            fail(path, f"{where}: missing integer pid")
        if ph == "M":
            if e["name"] == "process_name":
                named_pids[e["pid"]] = e.get("args", {}).get("name")
            continue
        if e["pid"] not in (1, 2):
            fail(path, f"{where}: pid {e['pid']} is neither slot (1) nor "
                       "wall (2)")
        if not isinstance(e.get("cat"), str) or not e["cat"]:
            fail(path, f"{where}: missing category")
        if not isinstance(e.get("tid"), int) or e["tid"] < 0:
            fail(path, f"{where}: missing non-negative tid")
        ts = e.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(path, f"{where}: missing non-negative ts")
        if e["pid"] == 1 and (not isinstance(ts, int) or ts % 1000 != 0):
            fail(path, f"{where}: slot-domain ts {ts!r} is not a whole slot")
        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                fail(path, f"{where}: complete event without dur")
        if ph == "i" and e.get("s") not in ("t", "p", "g"):
            fail(path, f"{where}: instant event without scope")
        if ph == "C":
            args = e.get("args")
            if not isinstance(args, dict) or not args:
                fail(path, f"{where}: counter event without args")
            key = (e["pid"], e["name"], ts)
            if key in counter_samples:
                fail(path, f"{where}: second sample of counter "
                           f"{e['name']!r} at pid {e['pid']} ts {ts}; one "
                           "Chrome counter track cannot hold both")
            counter_samples.add(key)
        for k, v in e.get("args", {}).items():
            if not isinstance(k, str) or not isinstance(v, (int, float)):
                fail(path, f"{where}: non-numeric arg {k!r}")

    for pid in (1, 2):
        if pid not in named_pids:
            fail(path, f"no process_name metadata for pid {pid}")
    dropped = doc.get("otherData", {}).get("droppedEvents")
    print(f"{path}: ok — {counts['X']} spans, {counts['i']} instants, "
          f"{counts['C']} counter samples, {counts['M']} metadata, "
          f"dropped={dropped}")


# Required keys per QoE/decision line kind; a line must carry every one.
QOE_KEYS = ("video", "rung", "rung_name", "admissions", "requests",
            "segments", "late_segments", "continuity", "wait_p50",
            "wait_p99", "wait_count", "wait_sum", "wait_lo",
            "wait_bin_width", "wait_bins", "exemplars")
SLO_KEYS = ("scope", "rung", "rung_name", "objective", "target", "budget",
            "total", "bad", "bad_fraction", "met", "fast_window_slots",
            "fast_windows", "fast_breached", "fast_max_burn",
            "slow_window_slots", "slow_windows", "slow_breached",
            "slow_max_burn", "alerts")
DECISION_KEYS = ("slot", "video", "estimate", "band", "dwell",
                 "rung_before", "rung_after", "overlap_slots",
                 "dwell_blocked", "forced", "committed")
VIOLATION_KEYS = ("dump", "file", "line", "expr", "msg")
QOE_SAMPLE_KEYS = ("request_id", "slot", "video", "rung", "wait_slots",
                   "count", "late_segments", "segments")


def require_keys(path, no, obj, kind, keys):
    for key in keys:
        if key not in obj:
            fail(path, f"line {no}: {kind} missing {key!r}")


def validate_jsonl(path):
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    counts = {}
    for no, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            fail(path, f"line {no}: invalid JSON: {e}")
        kind = obj.get("kind")
        if kind in ("counter", "gauge"):
            if not isinstance(obj.get("name"), str) or "value" not in obj:
                fail(path, f"line {no}: malformed {kind} snapshot")
        elif kind == "histogram":
            for key in ("name", "count", "sum", "lo", "bin_width", "bins"):
                if key not in obj:
                    fail(path, f"line {no}: histogram missing {key!r}")
            if sum(obj["bins"]) != obj["count"]:
                fail(path, f"line {no}: histogram bins sum "
                           f"{sum(obj['bins'])} != count {obj['count']}")
        elif kind == "qoe":
            require_keys(path, no, obj, kind, QOE_KEYS)
            bins = obj["wait_bins"]
            if sum(bins) != obj["wait_count"]:
                fail(path, f"line {no}: qoe wait bins sum "
                           f"{sum(bins)} != wait_count {obj['wait_count']}")
            if obj["requests"] < obj["admissions"]:
                fail(path, f"line {no}: qoe requests < admissions")
            if not 0.0 <= obj["continuity"] <= 1.0:
                fail(path, f"line {no}: qoe continuity out of [0, 1]")
            for ex in obj["exemplars"]:
                b = ex.get("bucket")
                if not isinstance(b, int) or not 0 <= b < len(bins):
                    fail(path, f"line {no}: exemplar bucket {b!r} out of "
                               f"range")
                if bins[b] == 0:
                    fail(path, f"line {no}: exemplar for empty bucket {b}")
                for key in ("request_id", "slot", "value"):
                    if key not in ex:
                        fail(path, f"line {no}: exemplar missing {key!r}")
        elif kind == "slo":
            require_keys(path, no, obj, kind, SLO_KEYS)
            if obj["scope"] not in ("group", "rung"):
                fail(path, f"line {no}: unknown slo scope {obj['scope']!r}")
            if obj["scope"] == "group" and "video" not in obj:
                fail(path, f"line {no}: group-scope slo without video")
            if obj["objective"] not in ("startup_wait", "continuity"):
                fail(path,
                     f"line {no}: unknown objective {obj['objective']!r}")
            if obj["bad"] > obj["total"]:
                fail(path, f"line {no}: slo bad {obj['bad']} > total "
                           f"{obj['total']}")
            if not isinstance(obj["met"], bool):
                fail(path, f"line {no}: slo met is not a bool")
        elif kind == "decision":
            require_keys(path, no, obj, kind, DECISION_KEYS)
            for key in ("dwell_blocked", "forced", "committed"):
                if not isinstance(obj[key], bool):
                    fail(path, f"line {no}: decision {key} is not a bool")
        elif kind == "violation":
            require_keys(path, no, obj, kind, VIOLATION_KEYS)
        elif kind == "qoe_sample":
            require_keys(path, no, obj, kind, QOE_SAMPLE_KEYS)
        else:
            fail(path, f"line {no}: unknown snapshot kind {kind!r}")
        counts[kind] = counts.get(kind, 0) + 1
    if not counts:
        fail(path, "no snapshots")
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    print(f"{path}: ok — {summary}")


def main(argv):
    if len(argv) < 2:
        sys.exit(__doc__)
    for path in argv[1:]:
        if path.endswith(".jsonl"):
            validate_jsonl(path)
        elif path.endswith(".json"):
            validate_chrome_trace(path)
        else:
            fail(path, "unknown extension (expected .json/.jsonl)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
