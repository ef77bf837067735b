#!/usr/bin/env python3
"""Self-test of the repository benchmark at tiny problem sizes.

Usage, from the repository root:

    python3 e2ebench/self_test.py

Runs every workload through e2ebench/run.py with --scale tiny and checks:
  * the result line has exactly the contract keys, every end-to-end metric
    of BENCHMARK.json with its unit, and no failed operation;
  * each workload's named metrics are printed as report lines with units;
  * the traced run reports every per-layer metric of BENCHMARK.json, its
    Chrome trace passes tools/validate_trace_json.py, and the static_scale
    stages cover the pipeline's wall time within 5%;
  * paper_sweep's grid-point means repeat exactly across two runs;
  * a deliberately corrupted output (--corrupt 1) trips each workload's
    gate: correct is false, failed > 0, and the exit status is non-zero.
Exits non-zero on the first failed check.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7

# Named end-to-end metrics each workload prints as "metric NAME VALUE UNIT".
NAMED = {
    "static_scale": {"setup_s": "s", "pipeline_s": "s"},
    "paper_sweep": {"setup_s": "s", "trials_per_s": "1/s",
                    "trial_p50_us": "us"},
    "protocol_sim": {"setup_s": "s", "protocol_s": "s", "flood_s": "s",
                     "flood_lossy_s": "s"},
    "churn_durable": {"setup_s": "s", "events_per_s": "1/s",
                      "event_p50_us": "us", "recover_s": "s"},
}
COMMON_NAMED = {"peak_rss_mb": "MB", "ops": "count", "ops_failed": "count"}


def check(cond, msg):
    if not cond:
        print(f"FAIL: {msg}")
        sys.exit(1)


def run(workload, trace=0, corrupt=0, seed=SEED):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
           "--scale", "tiny", "--corrupt", str(corrupt)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    lines = res.stdout.strip().splitlines()
    check(lines, f"{workload}: no output (stderr: {res.stderr[-500:]})")
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(result)}")
    return res.returncode, result, lines[:-1]


def check_metrics(what, result, specs):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in specs}
    check(set(got) == set(want),
          f"{what}: metrics differ: missing {sorted(set(want) - set(got))}, "
          f"extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        check(got[name]["unit"] == unit, f"{what}: {name} unit")
        check(isinstance(got[name]["value"], (int, float)),
              f"{what}: {name} value")


def main():
    workloads = [w["name"] for w in SPEC["workloads"]]
    digests = []
    for w in workloads:
        code, result, report = run(w)
        check(code == 0 and result["correct"] and result["failed"] == 0
              and result["attempted"] >= 1, f"{w}: clean run failed: {result}")
        check_metrics(w, result, SPEC["end_to_end"])
        printed = {}
        for line in report:
            m = re.match(r"metric (\S+) (\S+) (\S+)$", line)
            if m:
                printed[m.group(1)] = m.group(3)
        for name, unit in {**NAMED[w], **COMMON_NAMED}.items():
            check(printed.get(name) == unit,
                  f"{w}: report line for {name} [{unit}] missing")
        check(any(line.startswith("provenance {") for line in report),
              f"{w}: no provenance line")
        if w == "paper_sweep":
            digests.append(next(re.search(r"means_digest=(\w+)", line).group(1)
                                for line in report if "means_digest=" in line))
        print(f"ok   {w}: {result['attempted']} operations, metrics present")

    _, again, report = run("paper_sweep")
    digests.append(next(re.search(r"means_digest=(\w+)", line).group(1)
                        for line in report if "means_digest=" in line))
    check(digests[0] == digests[1], f"paper_sweep means differ: {digests}")
    print("ok   paper_sweep: grid-point means repeat across runs")

    code, result, report = run(workloads[0], trace=1)
    check(code == 0 and result["correct"], f"traced run failed: {result}")
    check_metrics("traced run", result, SPEC["per_layer"])
    coverage = result["metrics"]["static.stage_coverage"]["value"]
    check(abs(coverage - 1.0) <= 0.05, f"stage coverage {coverage}")
    trace_file = next(line.split()[1] for line in report
                      if line.startswith("trace "))
    validator = ROOT / "tools" / "validate_trace_json.py"
    res = subprocess.run([sys.executable, str(validator), trace_file],
                         capture_output=True, text=True)
    check(res.returncode == 0, f"trace rejected: {res.stdout}")
    print(f"ok   traced run: {len(result['metrics'])} per-layer metrics, "
          f"coverage {coverage:.4f}, {res.stdout.strip()}")

    for w in workloads:
        code, result, _ = run(w, corrupt=1)
        check(code != 0 and not result["correct"] and result["failed"] > 0,
              f"{w}: corrupted output passed its gate: {result}")
        print(f"ok   {w}: corrupted output trips the gate "
              f"({result['failed']} failed)")
    print("self-test passed")


if __name__ == "__main__":
    main()
