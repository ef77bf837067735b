#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark (e2ebench/run.py).

Usage, from anywhere:

    python3 tools/ab_e2e.py --base DIR --change DIR --build-root DIR \\
        --workloads static_scale,paper_sweep --pairs 10 [--seed 1] \\
        [--raw OUT.jsonl]
    python3 tools/ab_e2e.py --from-raw OUT.jsonl

DIR is a checkout (its e2ebench/run.py is what runs). Each side builds into
its own CARGO_TARGET_DIR, <build-root>/base and <build-root>/change. Pair i
runs both sides back to back, the base first in even pairs and the change
first in odd ones, so a drift of the host over the session falls on both
sides alike. Only same-session paired ratios are comparable; absolute
medians from different sessions are not.

Every run lasts BENCHMARK.json's `run_seconds`. For each workload and each
`end_to_end` metric of BENCHMARK.json it prints both medians and quartiles,
the pairs the change won (strictly better in the metric's `better`
direction), the ratio change/base of the medians, and the failed
operations of each side. BENCHMARK.json is the change checkout's when
running and this repository's with --from-raw. A run with no result line
counts as failed and is left out of the metric columns. --raw writes every
run's record to a new file, one session per file, so --from-raw can
summarize that session again without running; a record repeated for one
(workload, pair, side), as in concatenated sessions, is an error.

Quartiles are the inclusive linear-interpolation quantiles (Python's
statistics.quantiles(method="inclusive")); one sample is its own quartiles.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "change")


def quartiles(values):
    """(q1, median, q3) of a non-empty list."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def better(metric, change, base):
    """Whether \\p change is strictly better than \\p base for \\p metric."""
    return change < base if metric["better"] == "lower" else change > base


def summarize(runs, metrics):
    """Per-workload, per-metric summary of paired runs.

    runs: dicts {"workload", "pair", "side", "result"}, where result is the
    parsed result line of run.py or None when the run produced none.
    metrics: BENCHMARK.json's end_to_end entries (name, better).
    Raises ValueError if a (workload, pair, side) repeats.
    Returns {workload: {"pairs", "failed": {side: ops},
                        "failed_runs": {side: runs},
                        "metrics": {name: row}}} with row keys
    base_median, base_q1, base_q3, change_median, change_q1, change_q3,
    ratio (None where a side has no samples), won, compared.
    """
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        by_pair = {}
        for r in mine:
            sides = by_pair.setdefault(r["pair"], {})
            if r["side"] in sides:
                raise ValueError(f"{workload} pair {r['pair']} {r['side']}: "
                                 "repeated record (two sessions mixed?)")
            sides[r["side"]] = r["result"]
        summary = {
            "pairs": len(by_pair),
            "failed": {s: 0 for s in SIDES},
            "failed_runs": {s: 0 for s in SIDES},
            "metrics": {},
        }
        for r in mine:
            if r["result"] is None:
                summary["failed_runs"][r["side"]] += 1
            else:
                summary["failed"][r["side"]] += int(r["result"]["failed"])
        for m in metrics:
            name = m["name"]
            samples = {s: [] for s in SIDES}
            won = compared = 0
            for pair in sorted(by_pair):
                got = {}
                for s in SIDES:
                    res = by_pair[pair].get(s)
                    if res is not None and name in res["metrics"]:
                        got[s] = float(res["metrics"][name]["value"])
                        samples[s].append(got[s])
                if len(got) == 2:
                    compared += 1
                    won += better(m, got["change"], got["base"])
            row = {"won": won, "compared": compared, "ratio": None}
            for s in SIDES:
                q = quartiles(samples[s]) if samples[s] else (None,) * 3
                row[s + "_q1"], row[s + "_median"], row[s + "_q3"] = q
            if samples["base"] and samples["change"] and row["base_median"]:
                row["ratio"] = row["change_median"] / row["base_median"]
            summary["metrics"][name] = row
        out[workload] = summary
    return out


def fmt(x):
    if x is None:
        return "-"
    return f"{x:.4g}"


def render(summary, metrics):
    lines = []
    head = ("metric", "better", "base median [q1, q3]",
            "change median [q1, q3]", "won", "ratio")
    for workload, s in summary.items():
        lines.append(
            f"{workload}: {s['pairs']} pairs; failed ops base "
            f"{s['failed']['base']} change {s['failed']['change']}; runs "
            f"without a result base {s['failed_runs']['base']} change "
            f"{s['failed_runs']['change']}")
        rows = [head]
        for m in metrics:
            r = s["metrics"][m["name"]]
            rows.append((
                m["name"], m["better"],
                f"{fmt(r['base_median'])} [{fmt(r['base_q1'])}, "
                f"{fmt(r['base_q3'])}]",
                f"{fmt(r['change_median'])} [{fmt(r['change_q1'])}, "
                f"{fmt(r['change_q3'])}]",
                f"{r['won']}/{r['compared']}", fmt(r["ratio"])))
        widths = [max(len(row[i]) for row in rows) for i in range(len(head))]
        for row in rows:
            lines.append("  " + "  ".join(
                cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def run_once(checkout, build_dir, workload, seed, seconds):
    """One run.py run; its parsed result line, or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(build_dir))
    cmd = [sys.executable, str(Path(checkout) / "e2ebench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, capture_output=True, text=True, env=env)
    lines = res.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(res.stderr[-2000:])
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(res.stderr[-2000:])
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", help="checkout of the parent commit")
    ap.add_argument("--change", help="checkout of the change")
    ap.add_argument("--build-root",
                    help="holds one CARGO_TARGET_DIR per side")
    ap.add_argument("--workloads", default="static_scale,paper_sweep")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--raw", help="write every run's record here (JSONL)")
    ap.add_argument("--from-raw", help="summarize these records; run nothing")
    args = ap.parse_args()

    if args.from_raw:
        bench = json.loads((Path(__file__).resolve().parent.parent /
                            "BENCHMARK.json").read_text())
        runs = [json.loads(line) for line in
                Path(args.from_raw).read_text().splitlines() if line.strip()]
    else:
        if not (args.base and args.change and args.build_root):
            ap.error("--base, --change and --build-root are required")
        bench = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
        runs = []
        raw = open(args.raw, "w") if args.raw else None
        checkouts = {"base": args.base, "change": args.change}
        for workload in args.workloads.split(","):
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    result = run_once(checkouts[side],
                                      Path(args.build_root) / side, workload,
                                      args.seed, bench["run_seconds"])
                    rec = {"workload": workload, "pair": pair, "side": side,
                           "result": result}
                    runs.append(rec)
                    if raw:
                        raw.write(json.dumps(rec) + "\n")
                        raw.flush()
                    print(f"{workload} pair {pair} {side}: "
                          + ("no result" if result is None else
                             " ".join(f"{k}={v['value']}" for k, v in
                                      result["metrics"].items())),
                          file=sys.stderr)
        if raw:
            raw.close()
    metrics = bench["end_to_end"]
    try:
        summary = summarize(runs, metrics)
    except ValueError as e:
        sys.exit(f"ab_e2e: {e}")
    print(render(summary, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
