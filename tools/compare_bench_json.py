#!/usr/bin/env python3
"""Diffs two khop.bench JSONs and fails on wall-time regressions.

Usage: compare_bench_json.py BASELINE NEW [--threshold R]
                             [--normalize-by NAME/VARIANT]

Kernels are matched on (name, variant, n, k). For every matching kernel the
checksum must be identical (the runs are seeded, so any drift means the two
binaries computed different outputs) and the wall-time ratio
new/baseline must stay <= the threshold (default 1.20, i.e. fail on a >20%
regression). wall_ns_min is compared: it is the least noisy statistic.

--normalize-by NAME/VARIANT divides each file's wall times by that file's
reference kernel at the same n (e.g. bounded_bfs/legacy) before comparing,
canceling out absolute machine speed — use this when the two files come from
different machines (CI comparing a fresh run against the committed
trajectory). Rows with no reference kernel at their n are skipped with a
note.

--exclude-variant VARIANT (repeatable) drops matching rows from the
comparison entirely — CI uses it for the `parallel` variant, whose wall time
depends on core count and scheduler noise that normalization cannot cancel.

`parallel` rows are gated only when both files record the same thread count
(`provenance.pool_threads`, the field of e2ebench's provenance line, which
khop.bench v3 files carry). The v1/v2 files record none, so comparing their
parallel rows exits non-zero and asks for --exclude-variant parallel; two
v3 files from the same host gate them like any other row.

Kernels present in only one file are reported but not fatal (trajectories
gain kernels over time). Exits non-zero on any regression or checksum
mismatch.
"""
import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"{path}: unreadable or not JSON ({e})")
    if (doc.get("schema") != "khop.bench"
            or doc.get("schema_version") not in (1, 2, 3)):
        sys.exit(f"{path}: not a khop.bench v1/v2/v3 file")
    return doc


def kernel_table(doc):
    table = {}
    for row in doc.get("kernels", []):
        table[(row["name"], row["variant"], row["n"], row["k"])] = row
    return table


def pool_threads(doc):
    """The thread count the file records, or None."""
    provenance = doc.get("provenance")
    if isinstance(provenance, dict):
        return provenance.get("pool_threads")
    return None


def normalizer(table, spec, path):
    """Returns {n: wall_ns_min of the reference kernel} for one file."""
    name, _, variant = spec.partition("/")
    if not variant:
        sys.exit("--normalize-by expects NAME/VARIANT, e.g. bounded_bfs/legacy")
    ref = {}
    for (kname, kvariant, n, _k), row in table.items():
        if kname == name and kvariant == variant:
            ref[n] = row["wall_ns_min"]
    if not ref:
        sys.exit(f"{path}: no rows for normalization kernel {spec}")
    return ref


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline")
    ap.add_argument("new")
    ap.add_argument("--threshold", type=float, default=1.20,
                    help="max allowed new/baseline wall ratio (default 1.20)")
    ap.add_argument("--normalize-by", metavar="NAME/VARIANT", default=None,
                    help="normalize each file by this kernel's wall time "
                         "at the same n (cross-machine comparisons)")
    ap.add_argument("--exclude-variant", metavar="VARIANT", action="append",
                    default=[],
                    help="drop rows with this variant from the comparison "
                         "(repeatable; e.g. core-count-sensitive 'parallel' "
                         "rows in cross-machine diffs)")
    args = ap.parse_args()

    excluded = set(args.exclude_variant)
    base_doc, new_doc = load(args.baseline), load(args.new)
    base = {k: v for k, v in kernel_table(base_doc).items()
            if k[1] not in excluded}
    new = {k: v for k, v in kernel_table(new_doc).items()
           if k[1] not in excluded}

    if any(key[1] == "parallel" for key in base.keys() & new.keys()):
        base_threads, new_threads = pool_threads(base_doc), pool_threads(new_doc)
        if base_threads is None or base_threads != new_threads:
            def show(t):
                return "unrecorded" if t is None else str(t)
            sys.exit("parallel rows need the same recorded thread count in "
                     f"both files (baseline: {show(base_threads)}, new: "
                     f"{show(new_threads)}); pass --exclude-variant parallel "
                     "to compare the other rows")

    base_ref = new_ref = None
    if args.normalize_by:
        base_ref = normalizer(base, args.normalize_by, args.baseline)
        new_ref = normalizer(new, args.normalize_by, args.new)

    matched = 0
    skipped_norm = 0
    failures = []
    for key in sorted(base.keys() & new.keys()):
        name, variant, n, k = key
        b, m = base[key], new[key]
        label = f"{name}/{variant} n={n} k={k}"
        if b["checksum"] != m["checksum"]:
            failures.append(f"CHECKSUM {label}: {b['checksum']} -> "
                            f"{m['checksum']}")
            continue
        b_wall, m_wall = b["wall_ns_min"], m["wall_ns_min"]
        if base_ref is not None:
            if n not in base_ref or n not in new_ref:
                print(f"note: {label} skipped (no normalization row at n={n})")
                skipped_norm += 1
                continue
            b_wall /= base_ref[n]
            m_wall /= new_ref[n]
        matched += 1
        ratio = m_wall / b_wall if b_wall > 0 else float("inf")
        if ratio > args.threshold:
            failures.append(f"REGRESSION {label}: x{ratio:.2f} "
                            f"(limit x{args.threshold:.2f})")

    only_base = sorted(base.keys() - new.keys())
    only_new = sorted(new.keys() - base.keys())
    for key in only_base:
        print(f"note: only in {args.baseline}: {'/'.join(map(str, key))}")
    for key in only_new:
        print(f"note: only in {args.new}: {'/'.join(map(str, key))}")

    if matched == 0 and not failures:
        sys.exit("no comparable kernels between the two files")

    for f in failures:
        print(f)
    verdict = "FAIL" if failures else "OK"
    print(f"{verdict}: {matched} kernels compared, {len(failures)} problems, "
          f"{skipped_norm} skipped, {len(only_base) + len(only_new)} unmatched")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
