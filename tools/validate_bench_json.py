#!/usr/bin/env python3
"""Validates a BENCH_*.json file against the khop.bench schema.

Accepts schema versions 1, 2 and 3. Version 2 adds two required per-kernel
memory columns: allocs_per_rep and peak_rss_bytes. Version 3 adds a required
provenance object: nproc, pool_threads (an integer, or null for a bench
without a pool), compiler, build_type and git_describe.

Usage: validate_bench_json.py FILE [FILE...]
Exits non-zero (printing the first problem) if any file is invalid.
"""
import json
import sys

KERNEL_FIELDS = {
    "name": str,
    "variant": str,
    "n": int,
    "k": int,
    "reps": int,
    "wall_ns_mean": (int, float),
    "wall_ns_min": (int, float),
    "checksum": (int, float),
}
KERNEL_FIELDS_V2 = {
    **KERNEL_FIELDS,
    "allocs_per_rep": int,
    "peak_rss_bytes": int,
}
SPEEDUP_FIELDS = {"name": str, "n": int, "speedup": (int, float)}
PROVENANCE_FIELDS = {
    "nproc": int,
    "pool_threads": (int, type(None)),
    "compiler": str,
    "build_type": str,
    "git_describe": str,
}
REQUIRED_KERNELS = {"bounded_bfs", "clustering", "backbone", "engine_flood"}


def fail(path, msg):
    print(f"{path}: INVALID - {msg}")
    sys.exit(1)


def check_rows(path, rows, fields, what):
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            fail(path, f"{what}[{i}] is not an object")
        for key, typ in fields.items():
            if key not in row:
                fail(path, f"{what}[{i}] missing field '{key}'")
            if not isinstance(row[key], typ) or isinstance(row[key], bool):
                fail(path, f"{what}[{i}].{key} has wrong type")
        if "reps" in row and row["reps"] < 1:
            fail(path, f"{what}[{i}].reps must be >= 1")
        if "wall_ns_mean" in row and row["wall_ns_mean"] <= 0:
            fail(path, f"{what}[{i}].wall_ns_mean must be positive")


def validate(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(path, f"unreadable or not JSON ({e})")

    if doc.get("schema") != "khop.bench":
        fail(path, "schema must be 'khop.bench'")
    version = doc.get("schema_version")
    if version not in (1, 2, 3):
        fail(path, "schema_version must be 1, 2 or 3")
    if not isinstance(doc.get("label"), str) or not doc["label"]:
        fail(path, "label must be a non-empty string")
    if not isinstance(doc.get("kernels"), list) or not doc["kernels"]:
        fail(path, "kernels must be a non-empty array")
    if not isinstance(doc.get("speedups"), list):
        fail(path, "speedups must be an array")

    if version >= 3:
        if not isinstance(doc.get("provenance"), dict):
            fail(path, "provenance must be an object")
        check_rows(path, [doc["provenance"]], PROVENANCE_FIELDS, "provenance")
        if doc["provenance"]["nproc"] < 1:
            fail(path, "provenance.nproc must be >= 1")

    kernel_fields = KERNEL_FIELDS if version == 1 else KERNEL_FIELDS_V2
    check_rows(path, doc["kernels"], kernel_fields, "kernels")
    check_rows(path, doc["speedups"], SPEEDUP_FIELDS, "speedups")

    names = {row["name"] for row in doc["kernels"]}
    missing = REQUIRED_KERNELS - names
    if missing:
        fail(path, f"missing required kernels: {sorted(missing)}")

    # Cross-variant checksum agreement (the bit-exactness double-check).
    by_key = {}
    for row in doc["kernels"]:
        key = (row["name"], row["n"])
        if key in by_key and by_key[key] != row["checksum"]:
            fail(path, f"checksum mismatch across variants of {key}")
        by_key[key] = row["checksum"]

    print(f"{path}: OK (v{version}, {len(doc['kernels'])} kernel rows, "
          f"{len(doc['speedups'])} speedups)")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__)
        sys.exit(2)
    for p in sys.argv[1:]:
        validate(p)
