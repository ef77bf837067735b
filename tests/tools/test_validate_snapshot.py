#!/usr/bin/env python3
"""Checks tools/validate_snapshot.py's WAL event rules on crafted files.

Usage: test_validate_snapshot.py PATH/TO/validate_snapshot.py
                                 PATH/TO/committed.khwal

The committed fixture passes. Crafted segments whose records break the
state-free rules of the engine's check_event fail: a join repeating a
neighbor, a join listing its own id, and a self-link. A crafted segment of
valid records passes, so the rejections come from the rules and not from the
framing. Exits non-zero if any case misbehaves.
"""
import importlib.util
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

FAIL, JOIN, LINK_DOWN, LINK_UP = 0, 1, 2, 3
NO_NODE = 0xFFFFFFFF


def record(crc32c, ev_type, a, b=NO_NODE, nbrs=()):
    """One framed WAL record: u32 len | u32 crc32c | payload."""
    payload = struct.pack("<BIII", ev_type, a, b, len(nbrs))
    payload += b"".join(struct.pack("<I", v) for v in nbrs)
    return struct.pack("<II", len(payload), crc32c(payload)) + payload


def segment(crc32c, records, start=0):
    cursor = struct.pack("<Q", start)
    return (b"KHOPWAL1" + cursor + struct.pack("<I", crc32c(cursor)) +
            b"".join(records))


def main():
    validator, fixture = sys.argv[1], sys.argv[2]
    sys.dont_write_bytecode = True  # importing the tool must not write caches
    spec = importlib.util.spec_from_file_location("validate_snapshot",
                                                  validator)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    crc32c = module.crc32c

    failures = []

    def expect(path, want_ok, want_text):
        run = subprocess.run([sys.executable, validator, str(path)],
                             capture_output=True, text=True)
        out = run.stdout + run.stderr
        if (run.returncode == 0) != want_ok or want_text not in out:
            failures.append(f"{Path(path).name}: exit {run.returncode}, "
                            f"wanted {'0' if want_ok else 'non-zero'} and "
                            f"{want_text!r} in:\n{out}")

    expect(fixture, True, "ok (start cursor")
    valid = [record(crc32c, FAIL, 4),
             record(crc32c, JOIN, 4, nbrs=(1, 2, 7)),
             record(crc32c, LINK_UP, 1, 3),
             record(crc32c, LINK_DOWN, 1, 3)]
    cases = {
        "valid.khwal": (valid, True, "ok (start cursor 0, 4 records)"),
        "dup_neighbor.khwal": (
            valid + [record(crc32c, JOIN, 5, nbrs=(1, 2, 1))], False,
            "record 4: join of node 5 repeats a neighbor"),
        "self_neighbor.khwal": (
            valid + [record(crc32c, JOIN, 5, nbrs=(1, 5))], False,
            "record 4: join of node 5 lists itself as a neighbor"),
        "self_link.khwal": (
            valid + [record(crc32c, LINK_UP, 6, 6)], False,
            "record 4 is a self-link on node 6"),
    }
    with tempfile.TemporaryDirectory() as tmp:
        for name, (records, want_ok, want_text) in cases.items():
            path = Path(tmp) / name
            path.write_bytes(segment(crc32c, records))
            expect(path, want_ok, want_text)

    for f in failures:
        print(f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
