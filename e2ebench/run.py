#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 e2ebench/run.py --workload scan_topk --seed 1 --seconds 30 --trace 0

Builds the engine and the benchmark from source into .bench_build/ at the
root of the checkout (CMake, Release), then runs one workload. The last line
of standard output is the benchmark's JSON result; build logs and progress go
to standard error. A traced run (--trace 1) writes its spans to
.bench_build/traces/<workload>-seed<N>.jsonl. When the build or the run
fails the script exits nonzero without printing a result.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "e2ebench")
WORKLOADS = ("scan_topk", "lookup_sql")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build_env():
    """Keeps compiler and benchmark temporaries inside the checkout."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(target="e2ebench"):
    """Configures and builds `target`; returns False on failure. Both steps
    are incremental, so a run after the first costs about a second."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log(f"engine sources not found at {os.path.join(ROOT, 'src')}")
        return False
    env = build_env()
    generator = []
    if (not os.path.exists(os.path.join(BUILD, "CMakeCache.txt"))
            and shutil.which("ninja")):
        generator = ["-G", "Ninja"]
    configure = ["cmake", "-S", HERE, "-B", BUILD, *generator,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
        log("cmake configure failed")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
        log(f"build of {target} failed")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")

    if not build():
        return 2
    workdir = os.path.join(BUILD, "work", f"{args.workload}-{os.getpid()}")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        # stdout is inherited: the benchmark's result line is ours.
        code = subprocess.run(cmd, env=build_env(),
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s and was killed")
        code = 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
