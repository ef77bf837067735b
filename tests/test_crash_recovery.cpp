// Crash-recovery property test: for EVERY named crash point, at several
// occurrence depths, across multiple (n, k, pipeline) configurations, a
// DurableChurnEngine that dies mid-run recovers from disk and — after
// resuming the same trace from the recovered cursor — converges to state
// bit-identical to an engine that never crashed. The crash is modelled by
// CrashInjected unwinding the whole stack: buffered WAL bytes are lost,
// torn files stay behind, and the recovered process must cope with both.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "khop/dynamic/churn_engine.hpp"
#include "khop/dynamic/churn_trace.hpp"
#include "khop/dynamic/persist/crash_point.hpp"
#include "khop/dynamic/persist/store.hpp"
#include "khop/net/generator.hpp"

namespace khop {
namespace {

namespace fs = std::filesystem;
using persist::CrashInjected;
using persist::CrashPoints;
using persist::DurabilityOptions;
using persist::DurableChurnEngine;
using persist::kCrashPointNames;
using persist::RecoveryReport;

Graph make_network(std::uint64_t seed, std::size_t n, double degree = 8.0) {
  GeneratorConfig cfg;
  cfg.num_nodes = n;
  cfg.target_degree = degree;
  Rng rng(seed);
  return generate_network(cfg, rng).graph;
}

struct TempDir {
  std::string path;
  explicit TempDir(const std::string& name) {
    path = (fs::temp_directory_path() / ("khop_crash_" + name)).string();
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

/// Canonical view of the link store: sorted by endpoint pair, full payload.
/// (The live vector's order depends on upsert/swap-pop history, which a
/// recovered engine legitimately does not share.)
std::vector<VirtualLink> sorted_links(const VirtualLinkMap& m) {
  std::vector<VirtualLink> out = m.all();
  std::sort(out.begin(), out.end(),
            [](const VirtualLink& a, const VirtualLink& b) {
              return a.u != b.u ? a.u < b.u : a.v < b.v;
            });
  return out;
}

/// Bit-exact comparison of every maintained public structure plus the
/// cumulative stats (audits excluded: the oracle and the recovered engine
/// audit at different times by design).
void expect_identical(const ChurnEngine& got, const ChurnEngine& want,
                      const std::string& label) {
  EXPECT_EQ(got.clustering().heads, want.clustering().heads) << label;
  EXPECT_EQ(got.clustering().head_of, want.clustering().head_of) << label;
  EXPECT_EQ(got.clustering().dist_to_head, want.clustering().dist_to_head)
      << label;
  EXPECT_EQ(got.backbone().heads, want.backbone().heads) << label;
  EXPECT_EQ(got.backbone().gateways, want.backbone().gateways) << label;
  EXPECT_EQ(got.backbone().virtual_links, want.backbone().virtual_links)
      << label;
  EXPECT_EQ(got.num_components(), want.num_components()) << label;

  const std::vector<VirtualLink> gl = sorted_links(got.virtual_links());
  const std::vector<VirtualLink> wl = sorted_links(want.virtual_links());
  ASSERT_EQ(gl.size(), wl.size()) << label;
  for (std::size_t i = 0; i < gl.size(); ++i) {
    EXPECT_EQ(gl[i].u, wl[i].u) << label;
    EXPECT_EQ(gl[i].v, wl[i].v) << label;
    EXPECT_EQ(gl[i].hops, wl[i].hops) << label;
    EXPECT_TRUE(std::ranges::equal(got.virtual_links().path(gl[i]),
                                   want.virtual_links().path(wl[i])))
        << label;
  }

  EXPECT_EQ(got.stats().events, want.stats().events) << label;
  EXPECT_EQ(got.stats().fails, want.stats().fails) << label;
  EXPECT_EQ(got.stats().joins, want.stats().joins) << label;
  EXPECT_EQ(got.stats().link_downs, want.stats().link_downs) << label;
  EXPECT_EQ(got.stats().link_ups, want.stats().link_ups) << label;
  EXPECT_EQ(got.stats().orphans, want.stats().orphans) << label;
  EXPECT_EQ(got.stats().reaffiliations, want.stats().reaffiliations) << label;
  EXPECT_EQ(got.stats().new_heads, want.stats().new_heads) << label;
  EXPECT_EQ(got.stats().heads_resweeped, want.stats().heads_resweeped)
      << label;
  EXPECT_EQ(got.stats().touched_nodes, want.stats().touched_nodes) << label;
  EXPECT_EQ(got.stats().partitions, want.stats().partitions) << label;
  EXPECT_EQ(got.stats().merges, want.stats().merges) << label;
}

/// How deep into the run the point's N-th occurrence lands. WAL points see
/// one occurrence per append, flush points one per flush_every appends,
/// snapshot points one per snapshot_every events — different depths keep
/// the crash inside a 1000-event trace for every point.
std::uint64_t deep_countdown(const std::string& point) {
  if (point == "wal.flush") return 100;          // flush #100 ≈ event 400
  if (point.rfind("wal.", 0) == 0) return 700;   // event ≈ 700
  return 7;                                      // snapshot #7 = cursor 448
}

struct CrashConfig {
  std::size_t n;
  Hops k;
  Pipeline pipeline;
  std::uint64_t seed;
  const char* tag;
};

void run_crash_matrix(const CrashConfig& cfg) {
  const Graph g = make_network(cfg.seed, cfg.n);
  ChurnTraceConfig tcfg;
  tcfg.num_events = 1000;
  const ChurnTrace trace = ChurnTrace::generate(g, tcfg, cfg.seed + 1);

  // The oracle: the same trace applied with no crash and no persistence.
  ChurnEngine oracle(g, cfg.k, cfg.pipeline);
  for (const ChurnEvent& e : trace.events()) oracle.apply(e);

  DurabilityOptions dopts;
  dopts.snapshot_every = 64;
  dopts.wal_flush_every = 4;
  dopts.keep_snapshots = 2;

  for (const char* point : kCrashPointNames) {
    for (const std::uint64_t countdown :
         {std::uint64_t{1}, deep_countdown(point)}) {
      const std::string label = std::string(cfg.tag) + "/" + point +
                                "@x" + std::to_string(countdown);
      TempDir dir(std::string(cfg.tag) + "_" + point + "_" +
                  std::to_string(countdown));

      bool crashed = false;
      std::uint64_t crash_cursor = 0;
      {
        // Seed the directory BEFORE arming: the initial snapshot is the
        // pre-crash era, the armed point fires somewhere mid-trace.
        DurableChurnEngine durable = DurableChurnEngine::create(
            g, cfg.k, cfg.pipeline, dir.path, dopts);
        CrashPoints::global().arm(point, countdown);
        try {
          for (const ChurnEvent& e : trace.events()) durable.apply(e);
        } catch (const CrashInjected&) {
          crashed = true;
          crash_cursor = durable.cursor();
        }
        CrashPoints::global().disarm();
        // `durable` dies here WITHOUT flushing: unflushed WAL records are
        // gone, exactly as in a real crash.
      }
      ASSERT_TRUE(crashed) << label << ": the armed point never fired";

      RecoveryReport rep;
      DurableChurnEngine recovered =
          DurableChurnEngine::recover(dir.path, &rep, dopts);
      EXPECT_TRUE(rep.used_snapshot) << label;
      // Recovery can only lose the unflushed tail, never invent progress.
      EXPECT_LE(rep.cursor, crash_cursor + 1) << label;
      ASSERT_LE(rep.cursor, trace.size()) << label;

      for (std::size_t i = rep.cursor; i < trace.size(); ++i) {
        recovered.apply(trace.events()[i]);
      }
      expect_identical(recovered.engine(), oracle, label);
      EXPECT_EQ(recovered.engine().audit(), "") << label;
    }
  }
}

TEST(CrashRecovery, EveryPointRecoversBitExactAcMesh) {
  run_crash_matrix({110, 2, Pipeline::kAcMesh, 7001, "acmesh"});
}

TEST(CrashRecovery, EveryPointRecoversBitExactNcLmst) {
  run_crash_matrix({130, 2, Pipeline::kNcLmst, 7002, "nclmst"});
}

TEST(CrashRecovery, CrashPointCountdownSemantics) {
  CrashPoints& cp = CrashPoints::global();
  cp.arm("wal.append", 3);
  EXPECT_FALSE(cp.fires("wal.append"));
  EXPECT_FALSE(cp.fires("snapshot.begin"));  // other points never fire
  EXPECT_FALSE(cp.fires("wal.append"));
  EXPECT_TRUE(cp.fires("wal.append"));   // third occurrence
  EXPECT_FALSE(cp.fires("wal.append"));  // firing disarms
  EXPECT_FALSE(cp.armed());

  cp.arm("wal.flush");
  EXPECT_THROW(cp.hit("wal.flush"), CrashInjected);
  cp.disarm();
  EXPECT_NO_THROW(cp.hit("wal.flush"));
}

/// A second recovery of the same directory — with no events in between —
/// must land on the same cursor and the same state (recovery is
/// deterministic and repeatable, not consuming).
TEST(CrashRecovery, RecoveryIsRepeatable) {
  const Graph g = make_network(7003, 90);
  ChurnTraceConfig tcfg;
  tcfg.num_events = 500;
  const ChurnTrace trace = ChurnTrace::generate(g, tcfg, 7004);
  TempDir dir("repeatable");

  DurabilityOptions dopts;
  dopts.snapshot_every = 64;
  dopts.wal_flush_every = 4;
  {
    DurableChurnEngine durable =
        DurableChurnEngine::create(g, 2, Pipeline::kAcMesh, dir.path, dopts);
    CrashPoints::global().arm("wal.torn", 300);
    try {
      for (const ChurnEvent& e : trace.events()) durable.apply(e);
      FAIL() << "expected CrashInjected";
    } catch (const CrashInjected&) {
    }
    CrashPoints::global().disarm();
  }

  RecoveryReport rep1;
  DurableChurnEngine first = DurableChurnEngine::recover(dir.path, &rep1);
  RecoveryReport rep2;
  DurableChurnEngine second = DurableChurnEngine::recover(dir.path, &rep2);
  EXPECT_EQ(rep1.cursor, rep2.cursor);
  EXPECT_EQ(rep1.snapshot_cursor, rep2.snapshot_cursor);
  EXPECT_EQ(rep1.wal_tail, rep2.wal_tail);
  expect_identical(second.engine(), first.engine(), "repeat");
}

}  // namespace
}  // namespace khop
