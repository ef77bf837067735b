// Durability subsystem unit tests: CRC32C vectors, binary codec bounds,
// WAL segment roundtrip + torn-tail tolerance, snapshot roundtrip + the
// bit-flip/truncation corruption sweeps (clean error or fallback, never
// UB — the CI job runs this file under ASan+UBSan), retention, fallback
// to older generations, publish-watermark continuity, and the committed
// fixture formats.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "khop/common/error.hpp"
#include "khop/dynamic/churn_engine.hpp"
#include "khop/dynamic/churn_trace.hpp"
#include "khop/dynamic/persist/binio.hpp"
#include "khop/dynamic/persist/crash_point.hpp"
#include "khop/dynamic/persist/crc32c.hpp"
#include "khop/dynamic/persist/snapshot.hpp"
#include "khop/dynamic/persist/store.hpp"
#include "khop/dynamic/persist/wal.hpp"
#include "khop/net/generator.hpp"
#include "khop/obs/metrics.hpp"

namespace khop {
namespace {

namespace fs = std::filesystem;
using persist::ByteReader;
using persist::ByteWriter;
using persist::crc32c;
using persist::DurabilityOptions;
using persist::DurableChurnEngine;
using persist::RecoveryReport;
using persist::SnapshotData;
using persist::WalSegment;
using persist::WalWriter;

Graph make_network(std::uint64_t seed, std::size_t n, double degree = 8.0) {
  GeneratorConfig cfg;
  cfg.num_nodes = n;
  cfg.target_degree = degree;
  Rng rng(seed);
  return generate_network(cfg, rng).graph;
}

ChurnTrace make_trace(const Graph& g, std::size_t events, std::uint64_t seed) {
  ChurnTraceConfig cfg;
  cfg.num_events = events;
  return ChurnTrace::generate(g, cfg, seed);
}

/// Fresh scratch directory under the build tree's temp space.
struct TempDir {
  std::string path;
  explicit TempDir(const std::string& name) {
    path = (fs::temp_directory_path() / ("khop_persist_" + name)).string();
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The maintained public state two engines must agree on bit-exactly.
/// (cluster_of/election_rounds are not maintained under churn; audit counts
/// differ between a recovered and an uninterrupted engine by design.)
void expect_same_state(const ChurnEngine& a, const ChurnEngine& b) {
  EXPECT_EQ(a.clustering().heads, b.clustering().heads);
  EXPECT_EQ(a.clustering().head_of, b.clustering().head_of);
  EXPECT_EQ(a.clustering().dist_to_head, b.clustering().dist_to_head);
  EXPECT_EQ(a.backbone().heads, b.backbone().heads);
  EXPECT_EQ(a.backbone().gateways, b.backbone().gateways);
  EXPECT_EQ(a.backbone().virtual_links, b.backbone().virtual_links);
  EXPECT_EQ(a.num_components(), b.num_components());
  EXPECT_EQ(a.graph().num_alive(), b.graph().num_alive());
  EXPECT_EQ(a.graph().num_edges(), b.graph().num_edges());
  EXPECT_EQ(a.stats().events, b.stats().events);
  EXPECT_EQ(a.stats().orphans, b.stats().orphans);
  EXPECT_EQ(a.stats().reaffiliations, b.stats().reaffiliations);
  EXPECT_EQ(a.stats().new_heads, b.stats().new_heads);
  EXPECT_EQ(a.stats().touched_nodes, b.stats().touched_nodes);
  EXPECT_EQ(a.stats().partitions, b.stats().partitions);
  EXPECT_EQ(a.stats().merges, b.stats().merges);
  // links_ equality via the canonical store dump.
  ASSERT_EQ(a.virtual_links().all().size(), b.virtual_links().all().size());
}

// ---------------------------------------------------------------------------
// CRC32C

TEST(PersistCrc32c, KnownVectors) {
  // The iSCSI check value (RFC 3720 appendix B.4) plus degenerate inputs.
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c(""), 0x00000000u);
  EXPECT_EQ(crc32c(std::string(32, '\0')), 0x8A9136AAu);
}

TEST(PersistCrc32c, SliceBoundariesAgree) {
  // The slice-by-8 fast loop and the byte-at-a-time tail must agree for
  // every length straddling the 8-byte fold boundary.
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (std::size_t len = 0; len <= data.size(); ++len) {
    std::uint32_t slow = ~0u;
    for (std::size_t i = 0; i < len; ++i) {
      slow ^= static_cast<unsigned char>(data[i]);
      for (int b = 0; b < 8; ++b) {
        slow = (slow & 1u) ? (slow >> 1) ^ 0x82F63B78u : slow >> 1;
      }
    }
    EXPECT_EQ(crc32c(data.data(), len), ~slow) << len;
  }
}

// ---------------------------------------------------------------------------
// Binary codec

TEST(PersistBinio, RoundTripAndBounds) {
  ByteWriter w;
  w.put_u8(0xAB);
  w.put_u32(0xDEADBEEFu);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_bytes("xyz");
  const std::string bytes = std::move(w).take();
  EXPECT_EQ(bytes.size(), 1u + 4 + 8 + 3);

  ByteReader r(bytes);
  EXPECT_EQ(r.get_u8(), 0xABu);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_bytes(3), "xyz");
  EXPECT_TRUE(r.at_end());
  EXPECT_THROW(r.get_u8(), CorruptState);

  ByteReader short_read(std::string_view("ab"));
  EXPECT_THROW(short_read.get_u32(), CorruptState);
}

// ---------------------------------------------------------------------------
// WAL

ChurnEvent join_event(NodeId a, std::vector<NodeId> nbrs) {
  ChurnEvent e;
  e.type = ChurnEventType::kJoin;
  e.a = a;
  e.neighbors = std::move(nbrs);
  return e;
}

TEST(PersistWal, RecordRoundTrip) {
  ChurnEvent e = join_event(7, {1, 2, 9});
  const ChurnEvent back = persist::decode_wal_record(persist::encode_wal_record(e));
  EXPECT_EQ(back.type, e.type);
  EXPECT_EQ(back.a, e.a);
  EXPECT_EQ(back.neighbors, e.neighbors);
  EXPECT_THROW(persist::decode_wal_record("\xFF"), CorruptState);
}

TEST(PersistWal, SegmentRoundTripAndFlushBatching) {
  TempDir dir("wal_roundtrip");
  const std::string path = dir.path + "/wal-000000000005.khwal";
  WalWriter w = WalWriter::create(path, 5, /*flush_every=*/3);
  w.append(join_event(1, {2}));
  w.append(join_event(3, {}));
  // Two records buffered, none flushed: the file holds only the header.
  WalSegment before = persist::read_wal_file(path, 5);
  EXPECT_TRUE(before.clean);
  EXPECT_TRUE(before.events.empty());

  w.append(join_event(4, {5, 6}));  // third append crosses the batch size
  WalSegment after = persist::read_wal_file(path, 5);
  EXPECT_TRUE(after.clean);
  ASSERT_EQ(after.events.size(), 3u);
  EXPECT_EQ(after.start, 5u);
  EXPECT_EQ(after.events[2].neighbors, (std::vector<NodeId>{5, 6}));
  w.close();
}

TEST(PersistWal, TornTailKeepsValidPrefix) {
  TempDir dir("wal_torn");
  const std::string path = dir.path + "/wal-000000000000.khwal";
  WalWriter w = WalWriter::create(path, 0, 1);
  w.append(join_event(1, {2}));
  w.append(join_event(3, {4}));
  w.close();

  const std::string full = read_file(path);
  // Both records are one-neighbor joins: 17-byte payload + 8-byte frame.
  const std::size_t header = 20, frame = 25;
  ASSERT_EQ(full.size(), header + 2 * frame);
  // Every proper prefix must parse to a valid (possibly shorter) event run,
  // never throw, never produce garbage events. A prefix is clean exactly
  // when the cut lands on a record boundary past the header.
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    write_file(path, full.substr(0, cut));
    const WalSegment seg = persist::read_wal_file(path, 0);
    const std::size_t want =
        cut < header ? 0 : (cut - header) / frame;
    EXPECT_EQ(seg.events.size(), want) << "cut " << cut;
    EXPECT_EQ(seg.clean, cut >= header && (cut - header) % frame == 0)
        << "cut " << cut;
    for (const ChurnEvent& e : seg.events) {
      EXPECT_EQ(e.type, ChurnEventType::kJoin);
    }
  }
}

TEST(PersistWal, CorruptHeaderIsTornEmpty) {
  TempDir dir("wal_header");
  const std::string path = dir.path + "/wal-000000000000.khwal";
  WalWriter w = WalWriter::create(path, 0, 1);
  w.append(join_event(1, {2}));
  w.close();

  std::string bytes = read_file(path);
  bytes[3] ^= 0x40;  // damage the magic
  write_file(path, bytes);
  const WalSegment seg = persist::read_wal_file(path, 0);
  EXPECT_FALSE(seg.clean);
  EXPECT_TRUE(seg.events.empty());

  // A name/header cursor mismatch is equally distrusted.
  WalWriter w2 = WalWriter::create(path, 9, 1);
  w2.close();
  const WalSegment mismatch = persist::read_wal_file(path, 0);
  EXPECT_FALSE(mismatch.clean);
  EXPECT_TRUE(mismatch.events.empty());
}

TEST(PersistWal, BitFlipSweepNeverUB) {
  TempDir dir("wal_flip");
  const std::string path = dir.path + "/wal-000000000000.khwal";
  WalWriter w = WalWriter::create(path, 0, 1);
  for (NodeId i = 0; i < 8; ++i) w.append(join_event(i, {i + 1, i + 2}));
  w.close();
  const std::string full = read_file(path);

  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    std::string mut = full;
    mut[byte] ^= 0x10;
    write_file(path, mut);
    // Tolerant read: any outcome from "all events" (flip landed in dead
    // space — impossible here, every byte is load-bearing) down to an
    // empty dirty segment is fine; crashing or hanging is not.
    const WalSegment seg = persist::read_wal_file(path, 0);
    EXPECT_LE(seg.events.size(), 8u);
  }
}

// ---------------------------------------------------------------------------
// Snapshot

TEST(PersistSnapshot, RoundTripRestoresBitExact) {
  const Graph g = make_network(4201, 80);
  ChurnEngine engine(g, 2, Pipeline::kAcMesh);
  const ChurnTrace trace = make_trace(g, 400, 99);
  for (std::size_t i = 0; i < 300; ++i) engine.apply(trace.events()[i]);

  const std::string bytes = persist::encode_snapshot(engine, 300);
  SnapshotData snap = persist::decode_snapshot(bytes);
  EXPECT_EQ(snap.cursor, 300u);
  ChurnEngine restored = ChurnEngine::restore(std::move(snap.state));
  expect_same_state(engine, restored);
  EXPECT_EQ(restored.audit(), "");

  // And the recovered engine behaves identically from here on.
  for (std::size_t i = 300; i < 400; ++i) {
    engine.apply(trace.events()[i]);
    restored.apply(trace.events()[i]);
  }
  expect_same_state(engine, restored);
}

TEST(PersistSnapshot, FreshAndRestoredClusteringAgree) {
  // One contract for ChurnEngine::clustering(): a fresh engine exposes
  // exactly what an engine restored from its own snapshot does.
  const Graph g = make_network(4210, 60);
  const ChurnEngine fresh(g, 2, Pipeline::kAcLmst);
  const ChurnEngine restored = ChurnEngine::restore(
      persist::decode_snapshot(persist::encode_snapshot(fresh, 0)).state);
  const Clustering& a = fresh.clustering();
  const Clustering& b = restored.clustering();
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.heads, b.heads);
  EXPECT_EQ(a.head_of, b.head_of);
  EXPECT_EQ(a.dist_to_head, b.dist_to_head);
  EXPECT_EQ(a.cluster_of, b.cluster_of);
  EXPECT_EQ(a.election_rounds, b.election_rounds);
}

TEST(PersistSnapshot, EncodingIsDeterministic) {
  const Graph g = make_network(4202, 60);
  ChurnEngine engine(g, 2, Pipeline::kNcLmst);
  const ChurnTrace trace = make_trace(g, 150, 3);
  for (const ChurnEvent& e : trace.events()) engine.apply(e);
  EXPECT_EQ(persist::encode_snapshot(engine, 150),
            persist::encode_snapshot(engine, 150));
}

TEST(PersistSnapshot, TruncationSweepAlwaysCleanError) {
  const Graph g = make_network(4203, 40, 6.0);
  ChurnEngine engine(g, 1, Pipeline::kNcMesh);
  const std::string bytes = persist::encode_snapshot(engine, 0);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(persist::decode_snapshot(bytes.substr(0, cut)), Error)
        << "prefix length " << cut;
  }
  // Trailing garbage after a complete snapshot is corruption too.
  EXPECT_THROW(persist::decode_snapshot(bytes + "x"), CorruptState);
}

TEST(PersistSnapshot, BitFlipSweepAlwaysCleanError) {
  const Graph g = make_network(4204, 40, 6.0);
  ChurnEngine engine(g, 1, Pipeline::kNcMesh);
  const ChurnTrace trace = make_trace(g, 50, 11);
  for (const ChurnEvent& e : trace.events()) engine.apply(e);
  const std::string bytes = persist::encode_snapshot(engine, 50);

  // Flip one bit in every byte. Decoding must either throw a khop error or
  // — for flips confined to section framing that cancels out (none exist,
  // but the property is what matters) — produce a state that restore()
  // still validates. Anything else (crash, UB, silent bad state) fails.
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    std::string mut = bytes;
    mut[byte] ^= 0x04;
    try {
      SnapshotData snap = persist::decode_snapshot(mut);
      ChurnEngine restored = ChurnEngine::restore(std::move(snap.state));
      EXPECT_EQ(restored.audit(), "") << "byte " << byte;
    } catch (const Error&) {
      // clean rejection - the expected outcome
    }
  }
}

TEST(PersistSnapshot, CapacityBeyondGraphSectionRejectedBeforeSizing) {
  // A capacity that passes the checksums (the meta section is re-sealed)
  // but that the graph section cannot hold at 5 bytes per node. Without the
  // check the decoder sizes its per-node arrays by it (~100 MB at 2^22)
  // before the graph section runs out; larger capacities are not tried.
  const Graph g = make_network(4205, 40, 6.0);
  const ChurnEngine engine(g, 1, Pipeline::kNcMesh);
  std::string bytes = persist::encode_snapshot(engine, 0);
  // Meta section: tag u32, length u64, payload (cursor u64, capacity u64,
  // ...), crc u32.
  const std::size_t payload = persist::kSnapshotMagic.size() + 4 + 8;
  ByteReader header(std::string_view(bytes).substr(payload - 8, 8));
  const auto meta_len = static_cast<std::size_t>(header.get_u64());
  ByteWriter cap;
  cap.put_u64(std::uint64_t{1} << 22);
  bytes.replace(payload + 8, 8, cap.bytes());
  ByteWriter crc;
  crc.put_u32(crc32c(std::string_view(bytes).substr(payload, meta_len)));
  bytes.replace(payload + meta_len, 4, crc.bytes());
  try {
    persist::decode_snapshot(bytes);
    ADD_FAILURE() << "capacity 2^22 decoded";
  } catch (const CorruptState& e) {
    EXPECT_NE(std::string(e.what()).find("implausible capacity 4194304"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// DurableChurnEngine

TEST(PersistStore, CleanRunMatchesPlainEngine) {
  const Graph g = make_network(4205, 80);
  const ChurnTrace trace = make_trace(g, 400, 21);
  TempDir dir("clean_run");

  DurabilityOptions dopts;
  dopts.snapshot_every = 64;
  dopts.wal_flush_every = 4;
  DurableChurnEngine durable =
      DurableChurnEngine::create(g, 2, Pipeline::kAcMesh, dir.path, dopts);
  ChurnEngine plain(g, 2, Pipeline::kAcMesh);
  for (const ChurnEvent& e : trace.events()) {
    durable.apply(e);
    plain.apply(e);
  }
  EXPECT_EQ(durable.cursor(), 400u);
  expect_same_state(durable.engine(), plain);
  EXPECT_EQ(durable.engine().audit(), "");
}

TEST(PersistStore, RecoverAfterCleanShutdown) {
  const Graph g = make_network(4206, 80);
  const ChurnTrace trace = make_trace(g, 300, 33);
  TempDir dir("recover_clean");

  DurabilityOptions dopts;
  dopts.snapshot_every = 64;
  {
    DurableChurnEngine durable =
        DurableChurnEngine::create(g, 2, Pipeline::kNcLmst, dir.path, dopts);
    for (const ChurnEvent& e : trace.events()) durable.apply(e);
    durable.flush_wal();
  }
  ChurnEngine plain(g, 2, Pipeline::kNcLmst);
  for (const ChurnEvent& e : trace.events()) plain.apply(e);

  RecoveryReport rep;
  DurableChurnEngine back =
      DurableChurnEngine::recover(dir.path, &rep, dopts);
  EXPECT_EQ(rep.cursor, 300u);
  EXPECT_EQ(rep.snapshot_cursor, 256u);  // last multiple of snapshot_every
  EXPECT_EQ(rep.replayed_events, 44u);
  EXPECT_TRUE(rep.fallbacks.empty());
  expect_same_state(back.engine(), plain);
  EXPECT_EQ(back.engine().audit(), "");
}

TEST(PersistStore, RejectedEventIsNotLogged) {
  // A rejected event throws before the WAL append, so the directory stays
  // recoverable at the cursor of the last accepted event.
  const Graph g = make_network(4211, 60);
  const ChurnTrace trace = make_trace(g, 40, 7);
  TempDir dir("rejected_event");
  ChurnEngine plain(g, 2, Pipeline::kAcMesh);
  {
    DurableChurnEngine durable =
        DurableChurnEngine::create(g, 2, Pipeline::kAcMesh, dir.path);
    for (const ChurnEvent& e : trace.events()) {
      durable.apply(e);
      plain.apply(e);
    }
    ChurnEvent fail;
    fail.type = ChurnEventType::kFail;
    fail.a = durable.engine().graph().alive_nodes().front();
    durable.apply(fail);
    plain.apply(fail);
    EXPECT_THROW(durable.apply(fail), InvalidArgument);  // already dead
    EXPECT_EQ(durable.cursor(), 41u);
    durable.flush_wal();
  }
  RecoveryReport rep;
  DurableChurnEngine back = DurableChurnEngine::recover(dir.path, &rep);
  EXPECT_EQ(rep.cursor, 41u);
  EXPECT_EQ(rep.replayed_events, 41u);
  expect_same_state(back.engine(), plain);
  EXPECT_EQ(back.engine().audit(), "");
}

TEST(PersistStore, RetentionKeepsConfiguredGenerations) {
  const Graph g = make_network(4207, 60);
  const ChurnTrace trace = make_trace(g, 300, 5);
  TempDir dir("retention");

  DurabilityOptions dopts;
  dopts.snapshot_every = 50;
  dopts.keep_snapshots = 2;
  DurableChurnEngine durable =
      DurableChurnEngine::create(g, 2, Pipeline::kAcMesh, dir.path, dopts);
  for (const ChurnEvent& e : trace.events()) durable.apply(e);

  std::vector<std::string> snaps, wals;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    const std::string name = e.path().filename().string();
    if (name.ends_with(".khsnp")) snaps.push_back(name);
    if (name.ends_with(".khwal")) wals.push_back(name);
  }
  EXPECT_EQ(snaps.size(), 2u);  // generations 250 and 300
  // Every surviving segment serves a kept snapshot (none older than 250).
  for (const std::string& w : wals) {
    EXPECT_GE(w, std::string("wal-000000000250.khwal")) << w;
  }
}

TEST(PersistStore, CorruptNewestSnapshotFallsBack) {
  const Graph g = make_network(4208, 80);
  const ChurnTrace trace = make_trace(g, 200, 13);
  TempDir dir("fallback");

  DurabilityOptions dopts;
  dopts.snapshot_every = 64;
  dopts.keep_snapshots = 3;
  {
    DurableChurnEngine durable =
        DurableChurnEngine::create(g, 2, Pipeline::kAcMesh, dir.path, dopts);
    for (const ChurnEvent& e : trace.events()) durable.apply(e);
    durable.flush_wal();
  }
  // Flip a byte deep inside the newest snapshot (cursor 192).
  const std::string newest = dir.path + "/snap-000000000192.khsnp";
  std::string bytes = read_file(newest);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x01;
  write_file(newest, bytes);

  RecoveryReport rep;
  DurableChurnEngine back =
      DurableChurnEngine::recover(dir.path, &rep, dopts);
  ASSERT_EQ(rep.fallbacks.size(), 1u);
  EXPECT_NE(rep.fallbacks[0].find("snap-000000000192"), std::string::npos)
      << rep.fallbacks[0];
  EXPECT_EQ(rep.snapshot_cursor, 128u);
  EXPECT_EQ(rep.cursor, 200u);  // WAL replay crossed the corrupt generation

  ChurnEngine plain(g, 2, Pipeline::kAcMesh);
  for (const ChurnEvent& e : trace.events()) plain.apply(e);
  expect_same_state(back.engine(), plain);
  EXPECT_EQ(back.engine().audit(), "");
}

TEST(PersistStore, AllSnapshotsCorruptIsCleanError) {
  const Graph g = make_network(4209, 60);
  TempDir dir("all_corrupt");
  {
    DurableChurnEngine durable = DurableChurnEngine::create(
        g, 2, Pipeline::kAcMesh, dir.path, DurabilityOptions{});
  }
  for (const auto& e : fs::directory_iterator(dir.path)) {
    if (e.path().filename().string().ends_with(".khsnp")) {
      std::string bytes = read_file(e.path().string());
      bytes[0] ^= 0xFF;
      write_file(e.path().string(), bytes);
    }
  }
  EXPECT_THROW(DurableChurnEngine::recover(dir.path), CorruptState);
  // An empty directory reports the same clean failure.
  TempDir empty("never_seeded");
  EXPECT_THROW(DurableChurnEngine::recover(empty.path), CorruptState);
}

// ---------------------------------------------------------------------------
// Publish watermark continuity

TEST(PersistStats, PublishIsDeltaBasedAcrossRestore) {
  const Graph g = make_network(4210, 60);
  const ChurnTrace trace = make_trace(g, 250, 17);
  obs::Registry& reg = obs::Registry::global();
  reg.reset();

  ChurnEngine engine(g, 2, Pipeline::kAcMesh);
  for (std::size_t i = 0; i < 200; ++i) {
    engine.apply(trace.events()[i]);
    if (i == 99) engine.publish_stats();  // mid-run export
  }
  engine.publish_stats();
  EXPECT_EQ(reg.counter("churn.events").value(), 200u);
  engine.publish_stats();  // idempotent at a quiescent point
  EXPECT_EQ(reg.counter("churn.events").value(), 200u);

  // Snapshot carries the watermark: a restored engine re-publishes nothing
  // it already exported, only what it applies afterwards.
  const std::string bytes = persist::encode_snapshot(engine, 200);
  SnapshotData snap = persist::decode_snapshot(bytes);
  ChurnEngine restored = ChurnEngine::restore(std::move(snap.state));
  restored.publish_stats();
  EXPECT_EQ(reg.counter("churn.events").value(), 200u);

  for (std::size_t i = 200; i < 250; ++i) restored.apply(trace.events()[i]);
  restored.publish_stats();
  EXPECT_EQ(reg.counter("churn.events").value(), 250u);
  reg.reset();
}

// ---------------------------------------------------------------------------
// Committed fixtures (cross-version format stability)

std::string fixture_dir() {
  return std::string(KHOP_SOURCE_DIR) + "/tests/fixtures/persist";
}

TEST(PersistFixtures, CommittedSnapshotLoads) {
  const std::string path = fixture_dir() + "/snapshot_n60_k2_acmesh.khsnp";
  ASSERT_TRUE(fs::exists(path)) << path;
  SnapshotData snap = persist::load_snapshot_file(path);
  EXPECT_EQ(snap.cursor, 120u);
  ChurnEngine restored = ChurnEngine::restore(std::move(snap.state));
  EXPECT_EQ(restored.k(), 2u);
  EXPECT_EQ(restored.pipeline(), Pipeline::kAcMesh);
  // Re-encoding the restored engine reproduces the committed bytes: the
  // link store keeps the decoded link order and paths exactly.
  EXPECT_EQ(persist::encode_snapshot(restored, 120), read_file(path));
  EXPECT_EQ(restored.audit(), "");
}

TEST(PersistFixtures, CommittedWalLoads) {
  const std::string path = fixture_dir() + "/wal_n60_k2_acmesh.khwal";
  ASSERT_TRUE(fs::exists(path)) << path;
  const WalSegment seg = persist::read_wal_file(path, 120);
  EXPECT_TRUE(seg.clean) << seg.why;
  EXPECT_EQ(seg.start, 120u);
  EXPECT_FALSE(seg.events.empty());
}

}  // namespace
}  // namespace khop
