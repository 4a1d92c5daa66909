#!/usr/bin/env python3
"""Validate a finwork perf-record JSON file (schema finwork-perf-record/1).

Used by the perf-smoke CI job — and handy locally — to fail fast when a
benchmark binary emits a malformed or empty record:

  python3 tools/check_perf_record.py BENCH_solver.json

Checks: the file parses, the schema tag matches, metadata fields are
strings, at least one benchmark entry exists, every entry carries a
name, finite non-negative real_seconds, positive iterations, and numeric
metrics, and no trace event was dropped (counters["trace.events_dropped"]
is absent or 0: a record whose phase table lost spans cannot say where the
time went).  Exits 0 when valid, 1 with a diagnostic otherwise.

Regression mode compares per-iteration real time against a committed
baseline record on every benchmark name the two files share:

  python3 tools/check_perf_record.py --compare BENCH_solver.json \
      --max-regression 50 new_record.json

Exits 1 when any shared benchmark is more than --max-regression percent
slower than the baseline (names only in one file are reported, not
failed — machines differ, so CI runs this warn-only against the
committed baseline).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

SCHEMA = "finwork-perf-record/1"
REQUIRED_STRINGS = ("tool", "git_sha", "build_type", "sanitize")


def fail(msg: str) -> int:
    print(f"check_perf_record: FAIL: {msg}", file=sys.stderr)
    return 1


def is_number(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check(path: str) -> int:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        return fail(f"{path}: cannot parse: {exc}")

    if not isinstance(doc, dict):
        return fail(f"{path}: top level is not an object")
    if doc.get("schema") != SCHEMA:
        return fail(f"{path}: schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    for key in REQUIRED_STRINGS:
        if not isinstance(doc.get(key), str) or not doc[key]:
            return fail(f"{path}: missing or empty string field {key!r}")

    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        return fail(f"{path}: 'benchmarks' must be a non-empty array")
    for i, entry in enumerate(benchmarks):
        where = f"{path}: benchmarks[{i}]"
        if not isinstance(entry, dict):
            return fail(f"{where}: not an object")
        if not isinstance(entry.get("name"), str) or not entry["name"]:
            return fail(f"{where}: missing benchmark name")
        rs = entry.get("real_seconds")
        if not is_number(rs) or not math.isfinite(rs) or rs < 0:
            return fail(f"{where}: bad real_seconds {rs!r}")
        it = entry.get("iterations")
        if not isinstance(it, int) or isinstance(it, bool) or it <= 0:
            return fail(f"{where}: bad iterations {it!r}")
        metrics = entry.get("metrics", {})
        if not isinstance(metrics, dict):
            return fail(f"{where}: metrics is not an object")
        for k, v in metrics.items():
            if v is not None and not is_number(v):
                return fail(f"{where}: metric {k!r} is not numeric: {v!r}")

    counters = doc.get("counters")
    if counters is not None and not isinstance(counters, dict):
        return fail(f"{path}: 'counters' must be an object when present")
    dropped = (counters or {}).get("trace.events_dropped", 0)
    if not is_number(dropped) or dropped != 0:
        return fail(f"{path}: trace.events_dropped is {dropped!r}: the "
                    f"phase table lost spans")

    print(f"check_perf_record: OK: {path} "
          f"({len(benchmarks)} benchmark entr{'y' if len(benchmarks) == 1 else 'ies'}, "
          f"tool={doc['tool']}, git_sha={doc['git_sha']})")
    return 0


def per_iteration_seconds(doc: dict) -> dict[str, float]:
    """Map benchmark name -> real seconds per iteration."""
    out: dict[str, float] = {}
    for entry in doc["benchmarks"]:
        iters = entry["iterations"]
        if iters > 0:
            out[entry["name"]] = entry["real_seconds"] / iters
    return out


def compare(path: str, baseline_path: str, max_regression_pct: float) -> int:
    """Fail when a shared benchmark regressed beyond the threshold."""
    for p in (baseline_path, path):
        if check(p) != 0:
            return 1
    with open(baseline_path, encoding="utf-8") as f:
        base = per_iteration_seconds(json.load(f))
    with open(path, encoding="utf-8") as f:
        new = per_iteration_seconds(json.load(f))

    shared = sorted(base.keys() & new.keys())
    only_base = sorted(base.keys() - new.keys())
    only_new = sorted(new.keys() - base.keys())
    for name in only_base:
        print(f"check_perf_record: note: {name!r} only in baseline")
    for name in only_new:
        print(f"check_perf_record: note: {name!r} only in {path}")
    if not shared:
        return fail(f"{path}: no benchmark names shared with {baseline_path}")

    status = 0
    for name in shared:
        old_s, new_s = base[name], new[name]
        if old_s <= 0.0:
            print(f"check_perf_record: note: {name}: zero-time baseline, skipped")
            continue
        delta_pct = 100.0 * (new_s - old_s) / old_s
        verdict = "ok"
        if delta_pct > max_regression_pct:
            verdict = f"REGRESSION (> {max_regression_pct:g}%)"
            status = 1
        print(f"check_perf_record: {name}: {old_s:.6g}s -> {new_s:.6g}s "
              f"per iteration ({delta_pct:+.1f}%) {verdict}")
    if status:
        return fail(f"{path}: regression beyond {max_regression_pct:g}% "
                    f"vs {baseline_path}")
    print(f"check_perf_record: OK: {path} within {max_regression_pct:g}% "
          f"of {baseline_path} on {len(shared)} shared benchmark(s)")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Validate finwork perf records; optionally compare "
                    "against a baseline record.")
    parser.add_argument("files", nargs="+", help="perf-record JSON file(s)")
    parser.add_argument("--compare", metavar="BASELINE", default=None,
                        help="baseline record to compare each file against")
    parser.add_argument("--max-regression", metavar="PCT", type=float,
                        default=25.0,
                        help="allowed per-iteration slowdown in percent "
                             "(default 25)")
    args = parser.parse_args(argv)

    status = 0
    for path in args.files:
        if args.compare is not None:
            status = max(status, compare(path, args.compare,
                                         args.max_regression))
        else:
            status = max(status, check(path))
    return status


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
