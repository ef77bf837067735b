#!/usr/bin/env python3
"""Checks tools/compare_bench_json.py's gates on small crafted files.

Usage: test_compare_bench_json.py PATH/TO/compare_bench_json.py

Three cases: comparing `parallel` rows between files that record no thread
count is refused, excluding that variant passes, and a checksum drift fails.
A fourth, matching recorded thread counts, gates the parallel rows normally.
Exits non-zero on the first case that does not behave.
"""
import json
import subprocess
import sys
import tempfile
from pathlib import Path


def bench(rows, pool_threads=None):
    doc = {"schema": "khop.bench", "schema_version": 2, "label": "crafted",
           "kernels": [
               {"name": name, "variant": variant, "n": 100, "k": 2,
                "reps": 3, "wall_ns_mean": wall, "wall_ns_min": wall,
                "checksum": checksum}
               for name, variant, wall, checksum in rows]}
    if pool_threads is not None:
        doc["provenance"] = {"pool_threads": pool_threads}
    return doc


BASE = [("clustering", "workspace", 1000, "aa"),
        ("unit_disk", "parallel", 500, "bb")]
DRIFTED = [("clustering", "workspace", 1000, "ac"),
           ("unit_disk", "parallel", 500, "bb")]


def main():
    tool = sys.argv[1]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        def write(name, doc):
            path = Path(tmp) / name
            path.write_text(json.dumps(doc))
            return str(path)

        base = write("base.json", bench(BASE))
        same = write("same.json", bench(BASE))
        drifted = write("drifted.json", bench(DRIFTED))
        base4 = write("base4.json", bench(BASE, pool_threads=4))
        same4 = write("same4.json", bench(BASE, pool_threads=4))

        def expect(args, want_ok, want_text):
            run = subprocess.run([sys.executable, tool, *args],
                                 capture_output=True, text=True)
            out = run.stdout + run.stderr
            if (run.returncode == 0) != want_ok or want_text not in out:
                failures.append(f"{' '.join(args)}: exit {run.returncode}, "
                                f"wanted {'0' if want_ok else 'non-zero'} "
                                f"and {want_text!r} in:\n{out}")

        expect([base, same], False, "--exclude-variant parallel")
        expect([base, same, "--exclude-variant", "parallel"], True, "OK: 1")
        expect([base, drifted, "--exclude-variant", "parallel"], False,
               "CHECKSUM clustering/workspace")
        expect([base4, same4], True, "OK: 2")

    for f in failures:
        print(f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
