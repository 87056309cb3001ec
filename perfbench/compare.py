#!/usr/bin/env python3
"""Paired parent/change comparison with the repository benchmark.

    python3 perfbench/compare.py --parent ../parent --change . \\
        [--workloads views_read,stream_mixed] [--seed-base 1000]

`--parent` and `--change` are checkouts (trees holding src/ and tools/).
Both are built and measured with *this* copy of the benchmark
(perfbench/run.py --root), so the benchmark code and settings are identical
on both sides, at BENCHMARK.json's `run_seconds` (the length the bounds
were measured at). There are always 10 pairs, the number the gain rule
needs. Pair i runs seed `seed-base + i` on both sides; even pairs run the
parent first, odd pairs the change first.

For every (end-to-end metric, workload) the report gives each side's
median and quartiles and one verdict:

  gain        the change wins >= 9/10 of the pairs (ties count for neither)
              and the medians differ by more than the parent's IQR
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  the parent's own spread (IQR / median) is wider than the
              bound, unless every change run beats every parent run
  same        none of the above: within the bound
`setup_s` and every other metric are judged alike. A run that is not
correct or has failed requests is reported and makes the tool exit 1.
The full report is also written as JSON (`--out`).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PAIRS = 10


def load_benchmark():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0", "--root", root]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric, parent, change):
    better_lower = metric["better"] == "lower"
    bound = metric.get("bound", 0.25)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)

    def better(c, p):
        return c < p if better_lower else c > p

    wins = sum(1 for c, p in zip(change, parent) if better(c, p))
    losses = sum(1 for c, p in zip(change, parent) if better(p, c))
    worse_by = ((c_med - p_med) if better_lower else (p_med - c_med))
    worse_share = worse_by / p_med if p_med else 0.0
    spread = (p_q3 - p_q1) / p_med if p_med else 0.0
    all_better = all(better(c, p) for c in change for p in parent)
    if wins >= 0.9 * PAIRS and abs(c_med - p_med) > (p_q3 - p_q1) \
            and better(c_med, p_med):
        v = "gain"
    elif worse_share > bound:
        v = "regression"
    elif spread > bound and not all_better:
        v = "unresolved"
    else:
        v = "same"
    return {"parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
            "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
            "wins": wins, "losses": losses, "pairs": len(parent),
            "worse_share": worse_share, "parent_spread": spread,
            "bound": bound, "verdict": v}


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--out", default=os.path.join(".bench_work",
                                                  "compare_report.json"))
    a = ap.parse_args()
    sides = {"parent": os.path.abspath(a.parent),
             "change": os.path.abspath(a.change)}
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    seconds = bench["run_seconds"]
    report = {"pairs": PAIRS, "seconds": seconds, "workloads": {}}
    bad_runs = []
    for w in a.workloads.split(","):
        values = {side: {m: [] for m in metrics} for side in sides}
        for i in range(PAIRS):
            seed = a.seed_base + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            results = {}
            for side in order:
                r = run_once(sides[side], w, seed, seconds)
                if r is None or not r["correct"] or r["failed"]:
                    bad_runs.append({"workload": w, "seed": seed, "side": side,
                                     "result": r})
                results[side] = r
            if any(r is None for r in results.values()):
                continue  # a pair only counts when both sides measured
            for side, r in results.items():
                for m in metrics:
                    values[side][m].append(r["metrics"][m]["value"])
            print("%s pair %d (seed %d) done" % (w, i, seed), file=sys.stderr)
        report["workloads"][w] = {
            m: verdict(metrics[m], values["parent"][m], values["change"][m])
            for m in metrics if values["parent"][m]}

    print("%-15s %-18s %12s %12s %6s %-10s" % (
        "workload", "metric", "parent med", "change med", "wins", "verdict"))
    for w, rows in report["workloads"].items():
        for m, r in rows.items():
            print("%-15s %-18s %12.4g %12.4g %3d/%-2d %-10s" % (
                w, m, r["parent"]["median"], r["change"]["median"], r["wins"],
                r["pairs"], r["verdict"]))
    report["bad_runs"] = bad_runs
    for b in bad_runs:
        print("BAD RUN: %s seed %d on %s" % (b["workload"], b["seed"],
                                             b["side"]))
    os.makedirs(os.path.dirname(os.path.abspath(a.out)), exist_ok=True)
    with open(a.out, "w") as f:
        json.dump(report, f, indent=1)
    sys.exit(1 if bad_runs else 0)


if __name__ == "__main__":
    main()
