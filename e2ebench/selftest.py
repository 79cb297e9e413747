#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 e2ebench/selftest.py

1. Builds and runs e2ebench_test (needs GTest): seeded inputs are
   byte-identical for one seed and differ across seeds, the percentile
   helper matches a sorted oracle and reports its sample count, and the
   result line has the contract's shape.
2. Runs every workload named in BENCHMARK.json for one second, untraced and
   traced, and checks that each run answers correctly and prints exactly the
   metrics BENCHMARK.json lists for that mode, each with its unit.

Exits nonzero if any check fails.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build helper lives beside this file)


def unit_tests():
    if not run.build("e2ebench_test"):
        return ["e2ebench_test did not build (is GTest installed?)"]
    binary = os.path.join(run.BUILD, "e2ebench_test")
    if subprocess.run([binary]).returncode != 0:
        return ["e2ebench_test failed"]
    return []


def check_run(spec, workload, trace):
    """Runs one short workload and compares its metrics to the spec."""
    where = f"{workload} --trace {trace}"
    p = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True)
    if p.returncode != 0:
        return [f"{where}: exit {p.returncode}\n{p.stderr[-2000:]}"]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if (result.get("correct") is not True or result.get("failed") != 0
            or not result.get("attempted", 0) >= 1):
        errors.append(f"{where}: correct/attempted/failed = "
                      f"{result.get('correct')}/{result.get('attempted')}/"
                      f"{result.get('failed')}")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        errors.append(f"{where}: missing {missing} extra {extra} "
                      f"wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            errors.append(f"{where}: {name} has no numeric value")
    return errors


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = unit_tests()
    for w in spec["workloads"]:
        for trace in (0, 1):
            run_errors = check_run(spec, w["name"], trace)
            print(f"[selftest] {w['name']} --trace {trace}: "
                  f"{'FAILED' if run_errors else 'ok'}", file=sys.stderr)
            errors += run_errors
    for e in errors:
        print(f"[selftest] {e}", file=sys.stderr)
    print("[selftest] " + ("FAILED" if errors else "all checks passed"),
          file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
