#!/usr/bin/env python3
"""Runs the end-to-end benchmark in alternating parent/change pairs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR \\
        --workload scan_topk --seed 1 --pairs 10 --seconds 30

PARENT_DIR and CHANGE_DIR are two checkouts of this repository (a clone of
the parent commit and the working tree, say; they may be the same
directory). Each pair runs the benchmark command of CHANGE_DIR's
BENCHMARK.json (`python3 e2ebench/run.py`) once in each checkout, and the
side that runs first alternates from pair to pair, so drift of a shared
machine falls on both sides alike. Each checkout builds into its own
.bench_build/, which git ignores; no tracked file changes.

For every end-to-end metric of BENCHMARK.json (every per-layer metric with
--trace 1) the report gives each side's median and quartiles over the
pairs, the parent's interquartile range, the pairs the change won, and each
pair's values. An end-to-end metric whose change median is worse than the
parent median by more than its bound is flagged. The last lines give each
run's attempted, failed and correct counts. Exits 1 if a run fails or
returns no result (printing the end of its log), if a run reports failed
requests or wrong answers, or if a metric is flagged.
"""
import argparse
import json
import os
import subprocess
import sys


def log(msg):
    print(f"[bench_pairs] {msg}", file=sys.stderr, flush=True)


def quantile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    v = sorted(values)
    pos = (len(v) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def run_once(checkout, command, args):
    cmd = [*command, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-20:])
        raise RuntimeError(f"{checkout}: exit {proc.returncode}, no result\n"
                           f"{tail}")
    return json.loads(lines[-1])


def better(metric, change, parent):
    return change < parent if metric["better"] == "lower" else change > parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(sides["change"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["per_layer" if args.trace else "end_to_end"]

    runs = {"parent": [], "change": []}
    try:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                log(f"pair {i + 1}/{args.pairs}: {side}")
                runs[side].append(run_once(sides[side], bench["command"], args))
    except RuntimeError as err:
        log(str(err))
        return 1

    n = args.pairs
    print(f"{args.workload} seed {args.seed}, {n} pair(s) of "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"{'metric':32} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'parent IQR':>11} {'wins':>6}")
    flagged = []
    for m in metrics:
        name = m["name"]
        values = {s: [r["metrics"][name]["value"] for r in runs[s]]
                  for s in runs}
        stats = {s: [quantile(values[s], q) for q in (0.5, 0.25, 0.75)]
                 for s in runs}
        wins = sum(better(m, c, p)
                   for p, c in zip(values["parent"], values["change"]))
        iqr = stats["parent"][2] - stats["parent"][1]
        cells = [f"{med:.4g} [{q1:.4g}, {q3:.4g}]"
                 for med, q1, q3 in (stats["parent"], stats["change"])]
        flag = ""
        if "bound" in m:
            parent_med, change_med = stats["parent"][0], stats["change"][0]
            limit = parent_med * (1 + m["bound"] if m["better"] == "lower"
                                  else 1 - m["bound"])
            if better(m, limit, change_med):
                flag = f"  WORSE than bound {m['bound']:g}"
                flagged.append(name)
        print(f"{name:32} {cells[0]:>30} {cells[1]:>30} {iqr:>11.4g} "
              f"{wins:>3}/{n}{flag}")
        print(f"{'':32} per pair: " + ", ".join(
            f"{p:.4g}->{c:.4g}"
            for p, c in zip(values["parent"], values["change"])))
    for side in runs:
        counts = ", ".join(f"{r['attempted']}/{r['failed']}/{r['correct']}"
                           for r in runs[side])
        print(f"{side} attempted/failed/correct per run: {counts}")
    bad_runs = [s for s in runs for r in runs[s]
                if r["failed"] != 0 or not r["correct"]]
    if flagged:
        print("flagged: " + ", ".join(flagged))
    if bad_runs:
        print("runs with failures or wrong answers: " + ", ".join(bad_runs))
    return 1 if flagged or bad_runs else 0


if __name__ == "__main__":
    sys.exit(main())
