#!/usr/bin/env python3
"""Checks tools/ab_e2e.py's summary math on crafted run records.

Usage: test_ab_e2e.py PATH/TO/ab_e2e.py

Four pairs of one workload, one of them with a base run that produced no
result line: the medians, quartiles, pairs won (per `better` direction),
ratio and failed-operation counts must come out as computed by hand, both
from summarize() and from the --from-raw command line (which reads the
repository's BENCHMARK.json). The same records twice, as two concatenated
sessions, must be rejected by both. Exits non-zero if any value differs.
"""
import importlib.util
import json
import subprocess
import sys
import tempfile
from pathlib import Path

METRICS = [{"name": "ops_per_s", "better": "higher"},
           {"name": "peak_rss_mb", "better": "lower"}]


def result(ops, rss, failed=0):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


RUNS = [
    {"workload": "w", "pair": 0, "side": "base", "result": result(10, 100)},
    {"workload": "w", "pair": 0, "side": "change", "result": result(12, 100)},
    {"workload": "w", "pair": 1, "side": "change", "result": result(9, 85, 2)},
    {"workload": "w", "pair": 1, "side": "base", "result": result(11, 90)},
    {"workload": "w", "pair": 2, "side": "base", "result": None},
    {"workload": "w", "pair": 2, "side": "change", "result": result(20, 130)},
    {"workload": "w", "pair": 3, "side": "base", "result": result(14, 80, 1)},
    {"workload": "w", "pair": 3, "side": "change", "result": result(15, 70)},
]


def main():
    tool = sys.argv[1]
    spec = importlib.util.spec_from_file_location("ab_e2e", tool)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    failures = []

    def expect(what, got, want):
        if isinstance(want, float) and got is not None:
            ok = abs(got - want) < 1e-9
        else:
            ok = got == want
        if not ok:
            failures.append(f"{what}: got {got!r}, want {want!r}")

    # One sample is its own quartiles; 3 and 4 samples interpolate.
    expect("quartiles 1", ab.quartiles([5.0]), (5.0, 5.0, 5.0))
    expect("quartiles 3", ab.quartiles([10.0, 11.0, 14.0]), (10.5, 11.0, 12.5))
    expect("quartiles 4", ab.quartiles([9.0, 12.0, 15.0, 20.0]),
           (11.25, 13.5, 16.25))

    s = ab.summarize(RUNS, METRICS)["w"]
    expect("pairs", s["pairs"], 4)
    expect("failed", s["failed"], {"base": 1, "change": 2})
    expect("failed_runs", s["failed_runs"], {"base": 1, "change": 0})

    ops = s["metrics"]["ops_per_s"]
    # base [10, 11, 14], change [12, 9, 20, 15]; pairs 0, 1, 3 compared,
    # the change wins 0 (12 > 10) and 3 (15 > 14).
    expect("ops base median", ops["base_median"], 11.0)
    expect("ops base q1", ops["base_q1"], 10.5)
    expect("ops base q3", ops["base_q3"], 12.5)
    expect("ops change median", ops["change_median"], 13.5)
    expect("ops change q1", ops["change_q1"], 11.25)
    expect("ops change q3", ops["change_q3"], 16.25)
    expect("ops won", (ops["won"], ops["compared"]), (2, 3))
    expect("ops ratio", ops["ratio"], 13.5 / 11.0)

    rss = s["metrics"]["peak_rss_mb"]
    # base [100, 90, 80], change [100, 85, 130, 70]; lower is better, the
    # change wins pairs 1 (85 < 90) and 3 (70 < 80); pair 0 ties.
    expect("rss base median", rss["base_median"], 90.0)
    expect("rss change median", rss["change_median"], 92.5)
    expect("rss won", (rss["won"], rss["compared"]), (2, 3))
    expect("rss ratio", rss["ratio"], 92.5 / 90.0)

    # A side without samples leaves the comparison columns empty.
    only = ab.summarize([r for r in RUNS if r["side"] == "change"], METRICS)
    expect("one side ratio", only["w"]["metrics"]["ops_per_s"]["ratio"], None)
    expect("one side won", only["w"]["metrics"]["ops_per_s"]["compared"], 0)

    # A second session's records for the same pairs must not overwrite the
    # first's.
    try:
        ab.summarize(RUNS + RUNS[:1], METRICS)
        failures.append("repeated record accepted by summarize()")
    except ValueError as e:
        if "w pair 0 base" not in str(e):
            failures.append(f"repeated record message: {e}")

    with tempfile.TemporaryDirectory() as tmp:
        raw = Path(tmp) / "runs.jsonl"
        raw.write_text("".join(json.dumps(r) + "\n" for r in RUNS))
        twice = Path(tmp) / "twice.jsonl"
        twice.write_text(raw.read_text() * 2)
        res = subprocess.run([sys.executable, tool, "--from-raw", str(twice)],
                             capture_output=True, text=True)
        expect("cli exit on repeated records", res.returncode != 0, True)
        expect("cli names the repeat", "repeated record" in res.stderr, True)
        res = subprocess.run([sys.executable, tool, "--from-raw", str(raw)],
                             capture_output=True, text=True)
        expect("cli exit", res.returncode, 0)
        out = res.stdout
        for want in ("w: 4 pairs; failed ops base 1 change 2",
                     "without a result base 1 change 0", "ops_per_s",
                     "setup_s", "2/3", "1.227", "1.028"):
            if want not in out:
                failures.append(f"cli output lacks {want!r}:\n{out}")

    for f in failures:
        print("FAIL", f)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
