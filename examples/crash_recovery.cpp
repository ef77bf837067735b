/// \file crash_recovery.cpp
/// Crash-recovery stress driver (the CI "pull the plug" job) and fixture
/// generator for the durability subsystem.
///
/// Stress mode (default): runs a seeded churn trace through a
/// DurableChurnEngine and, `--crashes N` times, arms a crash point drawn
/// round-robin from the registry at a trace-position-dependent depth, lets
/// the process "die" (CrashInjected unwinds the stack, unflushed WAL bytes
/// are lost, torn files stay on disk), recovers from the directory, and
/// resumes the trace from the recovered cursor. At the end the survivor is
/// audited and compared bit-exactly against an engine that applied the same
/// trace with no crashes; any divergence or audit failure exits non-zero.
/// Emits the persist.* metrics so the CI log shows snapshot/replay volume.
///
/// Fixture mode (--emit-fixture DIR): writes the committed format-stability
/// fixtures read by tests/test_persist.cpp and tools/validate_snapshot.py —
/// a snapshot at a fixed cursor plus a clean WAL segment continuing it,
/// produced from a fixed (seed, n, k, pipeline) so the bytes only change
/// when the format version does.
///
/// Usage:
///   example_crash_recovery [--n N] [--events E] [--k K] [--crashes C]
///                          [--seed S] [--pipeline acmesh|aclmst|ncmesh|nclmst]
///                          [--dir PATH] [--snapshot-every N]
///                          [--flush-every N] [--metrics-out FILE]
///   example_crash_recovery --emit-fixture DIR
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "khop/dynamic/churn_engine.hpp"
#include "khop/dynamic/churn_trace.hpp"
#include "khop/dynamic/persist/crash_point.hpp"
#include "khop/dynamic/persist/snapshot.hpp"
#include "khop/dynamic/persist/store.hpp"
#include "khop/dynamic/persist/wal.hpp"
#include "khop/net/generator.hpp"
#include "khop/obs/metrics.hpp"

namespace {

using namespace khop;
namespace fs = std::filesystem;

struct Options {
  std::size_t n = 300;
  std::size_t events = 2000;
  Hops k = 2;
  std::size_t crashes = 12;
  std::uint64_t seed = 20260808;
  Pipeline pipeline = Pipeline::kAcMesh;
  std::string dir = "crash_recovery_store";
  std::size_t snapshot_every = 128;
  std::size_t flush_every = 4;
  std::string metrics_out;
  std::string fixture_dir;  // non-empty: fixture mode
};

Pipeline parse_pipeline(const std::string& s) {
  if (s == "acmesh") return Pipeline::kAcMesh;
  if (s == "aclmst") return Pipeline::kAcLmst;
  if (s == "ncmesh") return Pipeline::kNcMesh;
  if (s == "nclmst") return Pipeline::kNcLmst;
  std::cerr << "unknown pipeline: " << s << "\n";
  std::exit(2);
}

constexpr const char* kUsage =
    "usage: example_crash_recovery [--n N] [--events E] [--k K] "
    "[--crashes C] [--seed S]\n"
    "         [--pipeline acmesh|aclmst|ncmesh|nclmst] [--dir PATH] "
    "[--snapshot-every N]\n"
    "         [--flush-every N] [--metrics-out FILE] | --emit-fixture DIR\n";

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << flag << " requires a value\n" << kUsage;
        std::exit(2);
      }
      return argv[++i];
    };
    // A whole, in-range number of the option's type, else usage + exit 2.
    const auto need_number = [&](const char* flag, auto& out) {
      examples::parse_option_or_exit(flag, need_value(flag).c_str(), kUsage,
                                     out);
    };
    if (arg == "--n") {
      need_number("--n", opt.n);
    } else if (arg == "--events") {
      need_number("--events", opt.events);
    } else if (arg == "--k") {
      need_number("--k", opt.k);
    } else if (arg == "--crashes") {
      need_number("--crashes", opt.crashes);
    } else if (arg == "--seed") {
      need_number("--seed", opt.seed);
    } else if (arg == "--pipeline") {
      opt.pipeline = parse_pipeline(need_value("--pipeline"));
    } else if (arg == "--dir") {
      opt.dir = need_value("--dir");
    } else if (arg == "--snapshot-every") {
      need_number("--snapshot-every", opt.snapshot_every);
    } else if (arg == "--flush-every") {
      need_number("--flush-every", opt.flush_every);
    } else if (arg == "--metrics-out") {
      opt.metrics_out = need_value("--metrics-out");
    } else if (arg == "--emit-fixture") {
      opt.fixture_dir = need_value("--emit-fixture");
    } else {
      std::cerr << "unknown argument: " << arg << "\n" << kUsage;
      std::exit(2);
    }
  }
  return opt;
}

Graph make_network(std::uint64_t seed, std::size_t n) {
  GeneratorConfig cfg;
  cfg.num_nodes = n;
  Rng rng(seed);
  return generate_network(cfg, rng).graph;
}

/// Writes the committed format-stability fixtures. Fixed parameters: the
/// output bytes must only change when the format version changes, so the
/// validator and the loader tests pin exact cursors and names.
int emit_fixture(const std::string& dir) {
  fs::create_directories(dir);
  const Graph g = make_network(/*seed=*/4242, /*n=*/60);
  ChurnTraceConfig cfg;
  cfg.num_events = 160;
  const ChurnTrace trace = ChurnTrace::generate(g, cfg, /*seed=*/4243);

  ChurnEngine engine(g, /*k=*/2, Pipeline::kAcMesh);
  for (std::size_t i = 0; i < 120; ++i) engine.apply(trace.events()[i]);

  const std::string snap_path = dir + "/snapshot_n60_k2_acmesh.khsnp";
  const std::string bytes = persist::encode_snapshot(engine, /*cursor=*/120);
  {
    std::ofstream out(snap_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      std::cerr << "cannot write " << snap_path << "\n";
      return 1;
    }
  }

  const std::string wal_path = dir + "/wal_n60_k2_acmesh.khwal";
  persist::WalWriter w =
      persist::WalWriter::create(wal_path, /*start_cursor=*/120,
                                 /*flush_every=*/1);
  for (std::size_t i = 120; i < 160; ++i) w.append(trace.events()[i]);
  w.close();

  std::cout << "fixtures: " << snap_path << " (" << bytes.size()
            << " bytes), " << wal_path << " (40 events)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  if (!opt.fixture_dir.empty()) return emit_fixture(opt.fixture_dir);

  const Graph g = make_network(opt.seed, opt.n);
  ChurnTraceConfig cfg;
  cfg.num_events = opt.events;
  const ChurnTrace trace = ChurnTrace::generate(g, cfg, opt.seed + 1);
  std::cout << "network: n=" << g.num_nodes() << " m=" << g.num_edges()
            << " k=" << opt.k << "; trace: " << trace.size()
            << " events, " << opt.crashes << " injected crashes\n";

  // The no-crash oracle.
  ChurnEngine oracle(g, opt.k, opt.pipeline);
  for (const ChurnEvent& e : trace.events()) oracle.apply(e);

  persist::DurabilityOptions dopts;
  dopts.snapshot_every = opt.snapshot_every;
  dopts.wal_flush_every = opt.flush_every;

  fs::remove_all(opt.dir);
  constexpr std::size_t kNumPoints =
      sizeof(persist::kCrashPointNames) / sizeof(persist::kCrashPointNames[0]);
  persist::CrashPoints& cp = persist::CrashPoints::global();

  std::uint64_t cursor = 0;
  std::size_t crashes_done = 0, replayed_total = 0;
  for (std::size_t round = 0; cursor < trace.size(); ++round) {
    const bool crash_this_round = crashes_done < opt.crashes;
    const char* point =
        persist::kCrashPointNames[crashes_done % kNumPoints];
    {
      persist::DurableChurnEngine durable =
          round == 0 ? persist::DurableChurnEngine::create(
                           g, opt.k, opt.pipeline, opt.dir, dopts)
                     : persist::DurableChurnEngine::recover(
                           opt.dir, nullptr, dopts);
      if (crash_this_round) {
        // Depth varies with the round so crashes land at snapshot
        // boundaries, mid-segment, and everywhere between. Snapshot points
        // fire once per snapshot_every events, so they get shallow
        // countdowns; per-append WAL points get deep ones.
        const bool is_wal =
            std::string_view(point).substr(0, 4) == "wal.";
        cp.arm(point, is_wal ? 1 + (round * 37) % 150 : 1 + round % 3);
      }
      try {
        while (durable.cursor() < trace.size()) {
          durable.apply(trace.events()[durable.cursor()]);
        }
        durable.flush_wal();
        cursor = durable.cursor();
      } catch (const persist::CrashInjected&) {
        ++crashes_done;
        std::cout << "  crash #" << crashes_done << " at " << point
                  << ", cursor " << durable.cursor() << "\n";
      }
      cp.disarm();
    }
    if (cursor >= trace.size()) break;
    persist::RecoveryReport rep;
    persist::DurableChurnEngine probe =
        persist::DurableChurnEngine::recover(opt.dir, &rep, dopts);
    replayed_total += rep.replayed_events;
    std::cout << "  recovered to cursor " << rep.cursor << " (snapshot "
              << rep.snapshot_cursor << ", " << rep.replayed_events
              << " replayed";
    if (!rep.wal_tail.empty()) std::cout << ", torn tail";
    if (!rep.fallbacks.empty()) {
      std::cout << ", " << rep.fallbacks.size() << " snapshot fallbacks";
    }
    std::cout << ")\n";
    cursor = rep.cursor;
    // The probe's fresh WAL segment is all the resume run needs; the next
    // loop iteration re-recovers into its own engine.
  }

  // Final verdict: recover once more and compare against the oracle.
  persist::DurableChurnEngine survivor =
      persist::DurableChurnEngine::recover(opt.dir, nullptr, dopts);
  while (survivor.cursor() < trace.size()) {
    survivor.apply(trace.events()[survivor.cursor()]);
  }
  const std::string audit = survivor.engine().audit();
  if (!audit.empty()) {
    std::cerr << "FAIL: post-recovery audit: " << audit << "\n";
    return 1;
  }
  const ChurnEngine& got = survivor.engine();
  if (got.clustering().heads != oracle.clustering().heads ||
      got.clustering().head_of != oracle.clustering().head_of ||
      got.clustering().dist_to_head != oracle.clustering().dist_to_head ||
      got.backbone().heads != oracle.backbone().heads ||
      got.backbone().gateways != oracle.backbone().gateways ||
      got.backbone().virtual_links != oracle.backbone().virtual_links ||
      got.num_components() != oracle.num_components() ||
      got.stats().events != oracle.stats().events) {
    std::cerr << "FAIL: recovered state diverges from the no-crash oracle\n";
    return 1;
  }

  std::cout << "ok: " << crashes_done << " crashes survived, "
            << replayed_total << " events replayed, state bit-identical "
            << "to the no-crash run (" << got.clustering().heads.size()
            << " heads, " << got.backbone().gateways.size()
            << " gateways)\n";
  if (!opt.metrics_out.empty()) {
    obs::Registry::global().write_json(opt.metrics_out);
    std::cout << "wrote " << opt.metrics_out << "\n";
  }
  return 0;
}
