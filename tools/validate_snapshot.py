#!/usr/bin/env python3
"""Validates khop durability fixtures: snapshot (.khsnp) and WAL (.khwal).

An independent re-implementation of the binary formats documented in
src/khop/dynamic/persist/snapshot.hpp and wal.hpp, so a format drift between
the C++ encoder and the documented layout fails CI even if the C++ decoder
drifted in lockstep. Checks, per snapshot file:

 * the "KHOPSNP1" magic,
 * section framing (tag | u64 len | payload | u32 crc32c) in the exact
   mandatory order meta, graph, clustering, stats, links, end,
 * every section checksum (CRC32C, the Castagnoli polynomial — NOT zlib's
   CRC32; implemented below because the stdlib has no CRC32C),
 * internal structure: adjacency symmetric and sorted with dead nodes
   isolated, heads strictly ascending and self-headed, every alive node's
   head alive with dist <= k (dist == 0 iff self-headed), dead nodes
   unaffiliated, virtual links ordered (u < v) with path endpoints matching,
 * no trailing bytes.

Per WAL file: the "KHOPWAL1" magic, the header cursor checksum, and every
record's length/checksum/payload shape (type <= 3, neighbor count matching
the payload size), plus the state-free rules of the engine's check_event
(src/khop/dynamic/churn_trace.hpp): a link event is no self-link, and a
join's neighbors are distinct and differ from the joining node. The WAL
holds only events the engine accepted, so a record breaking them is corrupt.
A torn tail is an ERROR here — committed fixtures must be clean; runtime
tolerance for torn tails lives in the C++ reader.

Usage: validate_snapshot.py FILE [FILE...]
       (format chosen by extension: .khsnp / .khwal)
Exits non-zero, printing the first problem, if any file is invalid.
"""
import struct
import sys

SNAP_MAGIC = b"KHOPSNP1"
WAL_MAGIC = b"KHOPWAL1"
INVALID_NODE = 0xFFFFFFFF
UNREACHABLE = 0xFFFFFFFF
NUM_COUNTERS = 15
MAX_PIPELINE = 4  # Pipeline::kGmst
EVENT_JOIN = 1  # ChurnEventType::kJoin
MAX_EVENT_TYPE = 3  # ChurnEventType::kLinkUp

# CRC32C (Castagnoli), reflected polynomial 0x82F63B78 — the same function
# as src/khop/dynamic/persist/crc32c.cpp. zlib.crc32 uses 0xEDB88320 and
# would accept nothing the C++ side wrote.
_TABLE = []
for _i in range(256):
    _c = _i
    for _ in range(8):
        _c = (_c >> 1) ^ 0x82F63B78 if _c & 1 else _c >> 1
    _TABLE.append(_c)


def crc32c(data):
    crc = 0xFFFFFFFF
    for b in data:
        crc = (crc >> 8) ^ _TABLE[(crc ^ b) & 0xFF]
    return crc ^ 0xFFFFFFFF


assert crc32c(b"123456789") == 0xE3069283, "CRC32C self-test failed"


def fail(path, msg):
    print(f"{path}: INVALID - {msg}")
    sys.exit(1)


class Reader:
    """Bounds-checked little-endian cursor over a bytes object."""

    def __init__(self, path, data, what):
        self.path, self.data, self.pos, self.what = path, data, 0, what

    def take(self, n):
        if self.pos + n > len(self.data):
            fail(self.path, f"truncated {self.what} at offset {self.pos}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self):
        return self.take(1)[0]

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self.take(8))[0]

    def remaining(self):
        return len(self.data) - self.pos

    def at_end(self):
        return self.pos == len(self.data)


def read_section(path, r, want_tag, name):
    tag = r.u32()
    if tag != want_tag:
        fail(path, f"expected section {want_tag} ({name}), found {tag}")
    length = r.u64()
    if length > r.remaining():
        fail(path, f"section {name} length {length} exceeds file size")
    payload = r.take(length)
    crc = r.u32()
    actual = crc32c(payload)
    if actual != crc:
        fail(path, f"section {name} checksum mismatch "
                   f"(stored {crc:#010x}, computed {actual:#010x})")
    return Reader(path, payload, f"{name} section")


def expect_drained(path, r, name):
    if not r.at_end():
        fail(path, f"{r.remaining()} unparsed bytes at the end of "
                   f"the {name} section")


def validate_snapshot(path, data):
    if data[:len(SNAP_MAGIC)] != SNAP_MAGIC:
        fail(path, "bad magic (not a KHOPSNP1 file)")
    r = Reader(path, data[len(SNAP_MAGIC):], "file")

    meta = read_section(path, r, 1, "meta")
    cursor = meta.u64()
    cap = meta.u64()
    k = meta.u32()
    pipeline = meta.u8()
    num_components = meta.u64()
    expect_drained(path, meta, "meta")
    if k < 1:
        fail(path, f"k must be >= 1, got {k}")
    if pipeline > MAX_PIPELINE:
        fail(path, f"unknown pipeline {pipeline}")
    if num_components < 1:
        fail(path, f"num_components must be >= 1, got {num_components}")
    if cap > (1 << 32):
        fail(path, f"implausible capacity {cap}")

    gr = read_section(path, r, 2, "graph")
    alive, adj = [], []
    for u in range(cap):
        alive.append(gr.u8() != 0)
        deg = gr.u32()
        if deg * 4 > gr.remaining():
            fail(path, f"node {u} degree {deg} exceeds section size")
        adj.append([gr.u32() for _ in range(deg)])
    expect_drained(path, gr, "graph")
    edges = set()
    for u in range(cap):
        if not alive[u] and adj[u]:
            fail(path, f"dead node {u} has neighbors")
        if adj[u] != sorted(set(adj[u])):
            fail(path, f"node {u} adjacency not sorted-unique")
        for v in adj[u]:
            if v >= cap or v == u:
                fail(path, f"node {u} has invalid neighbor {v}")
            if not alive[v]:
                fail(path, f"alive node {u} linked to dead node {v}")
            edges.add((u, v))
    for (u, v) in edges:
        if (v, u) not in edges:
            fail(path, f"edge {{{u}, {v}}} is not symmetric")

    cl = read_section(path, r, 3, "clustering")
    head_count = cl.u32()
    if head_count * 4 > cl.remaining():
        fail(path, f"head count {head_count} exceeds section size")
    heads = [cl.u32() for _ in range(head_count)]
    head_of = [cl.u32() for _ in range(cap)]
    dist = [cl.u32() for _ in range(cap)]
    expect_drained(path, cl, "clustering")
    if heads != sorted(set(heads)):
        fail(path, "heads not strictly ascending")
    head_set = set(heads)
    for h in heads:
        if h >= cap or not alive[h]:
            fail(path, f"head {h} out of range or dead")
        if head_of[h] != h or dist[h] != 0:
            fail(path, f"head {h} not self-headed at distance 0")
    for v in range(cap):
        if not alive[v]:
            if head_of[v] != INVALID_NODE or dist[v] != UNREACHABLE:
                fail(path, f"dead node {v} still affiliated")
            continue
        if head_of[v] not in head_set:
            fail(path, f"node {v} affiliated to non-head {head_of[v]}")
        if dist[v] > k:
            fail(path, f"node {v} at distance {dist[v]} > k={k}")
        if (dist[v] == 0) != (head_of[v] == v):
            fail(path, f"node {v} distance/affiliation mismatch")

    st = read_section(path, r, 4, "stats")
    cumulative = [st.u64() for _ in range(NUM_COUNTERS)]
    published = [st.u64() for _ in range(NUM_COUNTERS)]
    expect_drained(path, st, "stats")
    for i, (c, p) in enumerate(zip(cumulative, published)):
        if p > c:
            fail(path, f"stats counter {i}: published watermark {p} "
                       f"exceeds cumulative {c}")

    li = read_section(path, r, 5, "links")
    link_count = li.u32()
    if link_count * 16 > li.remaining():
        fail(path, f"link count {link_count} exceeds section size")
    seen = set()
    for i in range(link_count):
        u, v, hops, path_len = li.u32(), li.u32(), li.u32(), li.u32()
        if path_len * 4 > li.remaining():
            fail(path, f"link {i} path length {path_len} exceeds section")
        lpath = [li.u32() for _ in range(path_len)]
        if u >= v:
            fail(path, f"link {i} endpoints unordered ({u}, {v})")
        if (u, v) in seen:
            fail(path, f"duplicate link ({u}, {v})")
        seen.add((u, v))
        if u not in head_set or v not in head_set:
            fail(path, f"link ({u}, {v}) endpoint is not a head")
        if path_len != hops + 1 or lpath[0] != u or lpath[-1] != v:
            fail(path, f"link ({u}, {v}) path does not span its endpoints "
                       f"in hops+1 nodes")
        for w in lpath:
            if w >= cap or not alive[w]:
                fail(path, f"link ({u}, {v}) path node {w} invalid or dead")
    expect_drained(path, li, "links")

    end = read_section(path, r, 0, "end")
    expect_drained(path, end, "end")
    if not r.at_end():
        fail(path, f"{r.remaining()} trailing bytes after end section")

    print(f"{path}: ok (cursor {cursor}, capacity {cap}, "
          f"{sum(alive)} alive, k={k}, pipeline {pipeline}, "
          f"{head_count} heads, {link_count} links)")


def validate_wal(path, data):
    if data[:len(WAL_MAGIC)] != WAL_MAGIC:
        fail(path, "bad magic (not a KHOPWAL1 file)")
    r = Reader(path, data, "file")
    r.take(len(WAL_MAGIC))
    cursor_bytes = r.take(8)
    start = struct.unpack("<Q", cursor_bytes)[0]
    crc = r.u32()
    if crc32c(cursor_bytes) != crc:
        fail(path, "header cursor checksum mismatch")

    records = 0
    while not r.at_end():
        # Committed fixtures must be whole: a torn tail is an error here.
        length = r.u32()
        stored = r.u32()
        payload = r.take(length)
        actual = crc32c(payload)
        if actual != stored:
            fail(path, f"record {records} checksum mismatch "
                       f"(stored {stored:#010x}, computed {actual:#010x})")
        p = Reader(path, payload, f"record {records}")
        ev_type = p.u8()
        a = p.u32()
        b = p.u32()
        nbr_count = p.u32()
        if ev_type > MAX_EVENT_TYPE:
            fail(path, f"record {records} has unknown event type {ev_type}")
        if nbr_count * 4 != p.remaining():
            fail(path, f"record {records} neighbor count {nbr_count} does "
                       f"not match payload size")
        nbrs = [p.u32() for _ in range(nbr_count)]
        if ev_type > EVENT_JOIN and a == b:
            fail(path, f"record {records} is a self-link on node {a}")
        if ev_type == EVENT_JOIN:
            if a in nbrs:
                fail(path, f"record {records}: join of node {a} lists "
                           f"itself as a neighbor")
            if len(set(nbrs)) != len(nbrs):
                fail(path, f"record {records}: join of node {a} repeats "
                           f"a neighbor")
        records += 1

    print(f"{path}: ok (start cursor {start}, {records} records)")


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    for path in argv[1:]:
        try:
            with open(path, "rb") as f:
                data = f.read()
        except OSError as e:
            fail(path, f"unreadable ({e})")
        if path.endswith(".khsnp"):
            validate_snapshot(path, data)
        elif path.endswith(".khwal"):
            validate_wal(path, data)
        else:
            fail(path, "unknown extension (expected .khsnp or .khwal)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
