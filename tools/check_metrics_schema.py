#!/usr/bin/env python3
"""Validator for the `serve --metrics-out` JSON-lines artifact.

Checks every line of the given files against the committed schema
(tools/metrics_schema.json, the source of truth for the exporter format in
src/obs/exporter.cc) plus the cross-line stream constraints: seq strictly
increasing from 1 with no gaps, ts_ms non-decreasing, counters monotone,
and each histogram's count equal to the sum of its (right-zero-padded)
buckets. The schema's `required_metrics` section additionally pins the
metric names every engine registers up front (bounded-delta counters,
MVCC and stream gauges, a few histograms): each must appear in
every snapshot line. Exits non-zero listing every violation.

kStatsResult frames served over the socket front end carry the same
exporter JSON-line shape (with a server-global seq), so the CI net smoke
job pipes a capture of those straight through this checker.

Usage: tools/check_metrics_schema.py metrics.jsonl [more.jsonl ...]
"""

import json
import os
import sys

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "metrics_schema.json")


def type_ok(value, kind):
    if kind == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if kind == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "object":
        return isinstance(value, dict)
    if kind == "int_array":
        return isinstance(value, list) and all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        )
    raise ValueError("unknown schema type " + kind)


def check_required(obj, spec, where, errors):
    for key, kind in spec["required"].items():
        if key not in obj:
            errors.append(f"{where}: missing key '{key}'")
        elif not type_ok(obj[key], kind):
            errors.append(
                f"{where}: '{key}' should be {kind}, "
                f"got {type(obj[key]).__name__}"
            )


def check_file(path, schema):
    errors = []
    line_spec = schema["line"]
    hist_spec = schema["histogram_value"]
    max_buckets = hist_spec["max_buckets"]
    required_metrics = schema.get("required_metrics", {})
    prev_seq = 0
    prev_ts = -1.0
    prev_counters = {}
    try:
        lines = open(path, encoding="utf-8").read().splitlines()
    except OSError as err:
        return [f"{path}: {err}"]
    if not lines:
        return [f"{path}: empty artifact (the exporter always emits a "
                "final snapshot on Stop)"]
    for lineno, raw in enumerate(lines, start=1):
        where = f"{path}:{lineno}"
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as err:
            errors.append(f"{where}: not valid JSON: {err}")
            continue
        check_required(obj, line_spec, where, errors)
        for family in ("counters", "gauges", "histograms"):
            present = obj.get(family)
            if not isinstance(present, dict):
                continue  # already reported by check_required
            for name in required_metrics.get(family, []):
                if name not in present:
                    errors.append(
                        f"{where}: required {family[:-1]} '{name}' missing"
                    )
        seq = obj.get("seq")
        if isinstance(seq, int):
            if seq != prev_seq + 1:
                errors.append(
                    f"{where}: seq {seq} after {prev_seq} "
                    "(must increase by 1 from 1)"
                )
            prev_seq = seq
        ts = obj.get("ts_ms")
        if isinstance(ts, (int, float)):
            if ts < prev_ts:
                errors.append(f"{where}: ts_ms {ts} decreased from {prev_ts}")
            prev_ts = ts
        for name, value in obj.get("counters", {}).items():
            if not type_ok(value, line_spec["counters_value"]):
                errors.append(f"{where}: counter '{name}' is not an int")
                continue
            prev = prev_counters.get(name, 0)
            if value < prev:
                errors.append(
                    f"{where}: counter '{name}' decreased ({prev} -> {value})"
                )
            prev_counters[name] = value
        for name, value in obj.get("gauges", {}).items():
            if not type_ok(value, line_spec["gauges_value"]):
                errors.append(f"{where}: gauge '{name}' is not a number")
        for name, hist in obj.get("histograms", {}).items():
            hwhere = f"{where} histogram '{name}'"
            if not isinstance(hist, dict):
                errors.append(f"{hwhere}: not an object")
                continue
            check_required(hist, hist_spec, hwhere, errors)
            buckets = hist.get("buckets")
            if isinstance(buckets, list):
                if len(buckets) > max_buckets:
                    errors.append(
                        f"{hwhere}: {len(buckets)} buckets exceeds the "
                        f"schema maximum {max_buckets}"
                    )
                if isinstance(hist.get("count"), int) and hist[
                    "count"
                ] != sum(b for b in buckets if isinstance(b, int)):
                    errors.append(
                        f"{hwhere}: count {hist['count']} != bucket sum "
                        f"{sum(buckets)}"
                    )
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(SCHEMA_PATH, encoding="utf-8") as f:
        schema = json.load(f)
    failures = []
    for path in argv[1:]:
        failures.extend(check_file(path, schema))
    for failure in failures:
        print(failure, file=sys.stderr)
    if failures:
        print(f"{len(failures)} schema violation(s)", file=sys.stderr)
        return 1
    print(f"ok: {len(argv) - 1} artifact(s) schema-valid")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
