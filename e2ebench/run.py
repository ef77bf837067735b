#!/usr/bin/env python3
"""Runs the khop repository benchmark (see e2ebench/README.md).

Usage, from the repository root:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds e2ebench/ (Release, into $CARGO_TARGET_DIR/e2ebench, default
.bench_build/e2ebench) on first use, then runs one workload. Report lines
come first; the last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the run also
writes its Chrome-trace spans to <build dir>/trace-<workload>-<seed>.json.

Exit status: 0 when every correctness gate passed; non-zero on a gate miss,
a crash, a timeout, or when the khop sources are missing (no result line).
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("static_scale", "paper_sweep", "protocol_sim", "churn_durable")
RUN_TIMEOUT_S = 170


def jobs():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2ebench"


def build(out):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "khop").is_dir():
        sys.exit(f"e2ebench: khop sources not found under {ROOT}")
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "khop_e2e",
                  "-j", str(jobs())])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            sys.exit(f"e2ebench: build step failed: {' '.join(cmd)}")
    return out / "khop_e2e"


def git_describe():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--scale", default="full", choices=("full", "tiny"),
                    help="tiny: the self-test's problem sizes")
    ap.add_argument("--corrupt", type=int, default=0, choices=(0, 1),
                    help="damage one output before its gate (self-test)")
    args = ap.parse_args()

    out = build_dir()
    exe = build(out)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--corrupt", str(args.corrupt),
           "--work-dir", str(out / "work"), "--git", git_describe()]
    if args.trace:
        cmd += ["--trace-out",
                str(out / f"trace-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    try:
        res = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s")
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
