#!/usr/bin/env python3
"""Checks tools/compare_bench_json.py's gates on small crafted files.

Usage: test_compare_bench_json.py PATH/TO/compare_bench_json.py
                                  [PATH/TO/validate_bench_json.py]

Three cases: comparing `parallel` rows between files that record no thread
count is refused, excluding that variant passes, and a checksum drift fails.
Matching recorded thread counts (a v2 file carrying the field, or two
khop.bench v3 files from one host) gate the parallel rows normally;
different or partly unrecorded counts are refused. With the validator's
path, also checks that it accepts a v3 file (pool_threads a number or null)
and rejects one without provenance. Exits non-zero if any case misbehaves.
"""
import json
import subprocess
import sys
import tempfile
from pathlib import Path


def bench(rows, pool_threads=None, version=2):
    doc = {"schema": "khop.bench", "schema_version": version,
           "label": "crafted",
           "kernels": [
               {"name": name, "variant": variant, "n": 100, "k": 2,
                "reps": 3, "wall_ns_mean": wall, "wall_ns_min": wall,
                "checksum": checksum}
               for name, variant, wall, checksum in rows]}
    if version >= 3:
        doc["provenance"] = {"nproc": 4, "pool_threads": pool_threads,
                             "compiler": "GNU 12.2.0", "build_type": "Release",
                             "git_describe": "abc1234"}
    elif pool_threads is not None:
        doc["provenance"] = {"pool_threads": pool_threads}
    return doc


def full_v3(pool_threads):
    """A v3 file the validator accepts: every required kernel and column."""
    doc = bench([(name, "workspace", 1000, 1.0) for name in
                 ("bounded_bfs", "clustering", "backbone", "engine_flood")],
                pool_threads=pool_threads, version=3)
    for row in doc["kernels"]:
        row.update(allocs_per_rep=0, peak_rss_bytes=0)
    doc["speedups"] = []
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

        v3_4 = write("v3_4.json", bench(BASE, pool_threads=4, version=3))
        v3_4b = write("v3_4b.json", bench(BASE, pool_threads=4, version=3))
        v3_8 = write("v3_8.json", bench(BASE, pool_threads=8, version=3))
        v3_none = write("v3_none.json", bench(BASE, version=3))
        expect([v3_4, v3_4b], True, "OK: 2")
        expect([v3_4, v3_8], False, "baseline: 4, new: 8")
        expect([v3_none, v3_4], False, "baseline: unrecorded, new: 4")
        expect([base, v3_4], False, "--exclude-variant parallel")
        expect([base, v3_4, "--exclude-variant", "parallel"], True, "OK: 1")

    if len(sys.argv) > 2:
        validator = sys.argv[2]
        with tempfile.TemporaryDirectory() as tmp:
            def validate(name, doc, want_ok, want_text):
                path = Path(tmp) / name
                path.write_text(json.dumps(doc))
                run = subprocess.run([sys.executable, validator, str(path)],
                                     capture_output=True, text=True)
                if (run.returncode == 0) != want_ok or want_text not in run.stdout:
                    failures.append(f"validate {name}: exit {run.returncode}, "
                                    f"wanted {want_text!r} in:\n{run.stdout}")

            validate("v3.json", full_v3(4), True, "OK (v3")
            validate("v3_null.json", full_v3(None), True, "OK (v3")
            bare = full_v3(4)
            del bare["provenance"]
            validate("v3_bare.json", bare, False, "provenance must be an object")
            wrong = full_v3(4)
            wrong["provenance"]["pool_threads"] = "4"
            validate("v3_wrong.json", wrong, False,
                     "provenance[0].pool_threads has wrong type")

    for f in failures:
        print(f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
