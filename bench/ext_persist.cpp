/// \file ext_persist.cpp
/// Durability-subsystem benchmark (PR 9): what crash safety costs.
///
/// Emits a khop.bench file (`BENCH_PERSIST.json` by default) with four
/// kernel groups over a churned engine at --n nodes:
///
///  * `snapshot_encode` — serializing the full live engine state.
///  * `snapshot_decode` — parse + checksum + ChurnEngine::restore back to a
///    live engine (the recovery-path CPU cost, files aside).
///  * `wal_append` — appending + flushing the whole event trace, `flush1`
///    (every record durable immediately) vs `flush16` (batched): the
///    checksum digests the decoded segment, so both variants must land the
///    identical record sequence on disk.
///  * `recover` — DurableChurnEngine::recover over a directory holding one
///    mid-trace snapshot plus its WAL tail (the end-to-end restart cost).
///
/// Usage:
///   bench_ext_persist [--out FILE] [--n N] [--events E] [--k K]
///                     [--degree D] [--min-seconds S] [--seed S]
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "../examples/cli_args.hpp"
#include "harness/harness.hpp"
#include "khop/dynamic/churn_engine.hpp"
#include "khop/dynamic/churn_trace.hpp"
#include "khop/dynamic/persist/snapshot.hpp"
#include "khop/dynamic/persist/store.hpp"
#include "khop/dynamic/persist/wal.hpp"
#include "khop/net/generator.hpp"

namespace {

using namespace khop;
namespace fs = std::filesystem;

struct Options {
  std::string out = "BENCH_PERSIST.json";
  std::size_t n = 2000;
  std::size_t events = 2000;
  Hops k = 2;
  double degree = 8.0;
  double min_seconds = 0.05;
  std::uint64_t seed = 20260808;
};

constexpr const char* kUsage =
    "usage: bench_ext_persist [--out FILE] [--n N] [--events E] [--k K]\n"
    "                         [--degree D] [--min-seconds S] [--seed S]\n";

[[noreturn]] void usage_error(const std::string& what) {
  std::cerr << what << "\n" << kUsage;
  std::exit(2);
}

/// Every number is parsed whole (examples/cli_args.hpp): a malformed or
/// out-of-range value, or k = 0, prints the usage and exits 2.
Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage_error(std::string(arg) + " requires a value");
      return argv[++i];
    };
    const auto number = [&](auto& out) {
      examples::parse_option_or_exit(arg, value(), kUsage, out);
    };
    if (std::strcmp(arg, "--out") == 0) {
      opt.out = value();
    } else if (std::strcmp(arg, "--n") == 0) {
      number(opt.n);
    } else if (std::strcmp(arg, "--events") == 0) {
      number(opt.events);
    } else if (std::strcmp(arg, "--k") == 0) {
      number(opt.k);
      if (opt.k == 0) usage_error("--k must be >= 1");
    } else if (std::strcmp(arg, "--degree") == 0) {
      number(opt.degree);
    } else if (std::strcmp(arg, "--min-seconds") == 0) {
      number(opt.min_seconds);
    } else if (std::strcmp(arg, "--seed") == 0) {
      number(opt.seed);
    } else {
      usage_error(std::string("unknown argument: ") + arg);
    }
  }
  return opt;
}

/// Order-independent integer-valued digest of recovered engine state.
double engine_digest(const ChurnEngine& e) {
  double sum = static_cast<double>(e.graph().num_alive()) +
               3.0 * static_cast<double>(e.graph().num_edges()) +
               23.0 * static_cast<double>(e.num_components());
  for (NodeId h : e.clustering().heads) sum += 11.0 * h;
  for (NodeId v = 0; v < e.graph().capacity(); ++v) {
    if (!e.graph().alive(v)) continue;
    sum += 31.0 * e.clustering().head_of[v] + 7.0 * e.clustering().dist_to_head[v];
  }
  return sum;
}

double segment_digest(const persist::WalSegment& seg) {
  double sum = static_cast<double>(seg.start) +
               3.0 * static_cast<double>(seg.events.size());
  for (const ChurnEvent& e : seg.events) {
    sum += static_cast<double>(e.type) + 5.0 * e.a +
           (e.b == kInvalidNode ? 0.0 : 7.0 * e.b) +
           13.0 * static_cast<double>(e.neighbors.size());
  }
  return sum;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  bench::Harness harness("PERSIST", {3, opt.min_seconds});

  GeneratorConfig gen;
  gen.num_nodes = opt.n;
  gen.target_degree = opt.degree;
  Rng rng(opt.seed);
  const Graph g = generate_network(gen, rng).graph;
  const std::size_t n = g.num_nodes();
  std::cout << "network: n=" << n << " m=" << g.num_edges() << " k=" << opt.k
            << ", " << opt.events << " events\n";

  ChurnTraceConfig tcfg;
  tcfg.num_events = opt.events;
  const ChurnTrace trace = ChurnTrace::generate(g, tcfg, opt.seed + 1);

  // A mid-churn engine: the realistic snapshot subject (dead nodes, drifted
  // heads, populated link store).
  ChurnEngine engine(g, opt.k, Pipeline::kAcLmst);
  for (const ChurnEvent& e : trace.events()) engine.apply(e);

  const std::string scratch =
      (fs::temp_directory_path() / "khop_bench_persist").string();
  fs::remove_all(scratch);
  fs::create_directories(scratch);

  std::string bytes;
  harness.time_kernel("snapshot_encode", "workspace", n, opt.k, [&] {
    bytes = persist::encode_snapshot(engine, opt.events);
    return static_cast<double>(bytes.size());
  });
  std::cout << "snapshot: " << bytes.size() << " bytes ("
            << static_cast<double>(bytes.size()) / static_cast<double>(n)
            << " bytes/node)\n";

  harness.time_kernel("snapshot_decode", "workspace", n, opt.k, [&] {
    persist::SnapshotData snap = persist::decode_snapshot(bytes);
    const ChurnEngine restored = ChurnEngine::restore(std::move(snap.state));
    return engine_digest(restored);
  });

  const std::string wal_file = scratch + "/bench.khwal";
  for (const std::size_t flush_every : {std::size_t{1}, std::size_t{16}}) {
    const std::string variant = "flush" + std::to_string(flush_every);
    harness.time_kernel("wal_append", variant, n, opt.k, [&] {
      persist::WalWriter w =
          persist::WalWriter::create(wal_file, 0, flush_every);
      for (const ChurnEvent& e : trace.events()) w.append(e);
      w.close();
      return segment_digest(persist::read_wal_file(wal_file, 0));
    });
  }
  {
    // harness.speedup() only pairs legacy/workspace variants; compute the
    // batching ratio directly from the rows.
    double flush1 = 0.0, flush16 = 0.0;
    for (const bench::KernelTiming& r : harness.results()) {
      if (r.name != "wal_append") continue;
      (r.variant == "flush1" ? flush1 : flush16) = r.wall_ns_min;
    }
    std::cout << "wal_append batching speedup (flush1 / flush16): x"
              << (flush16 > 0.0 ? flush1 / flush16 : 0.0) << "\n";
  }

  // Recovery subject: snapshot at half the trace + the WAL tail after it.
  const std::string store_dir = scratch + "/store";
  {
    persist::DurabilityOptions dopts;
    dopts.snapshot_every = opt.events / 2;
    dopts.wal_flush_every = 16;
    persist::DurableChurnEngine d = persist::DurableChurnEngine::create(
        g, opt.k, Pipeline::kAcLmst, store_dir, dopts);
    for (const ChurnEvent& e : trace.events()) d.apply(e);
    d.flush_wal();
  }
  harness.time_kernel("recover", "workspace", n, opt.k, [&] {
    persist::RecoveryReport rep;
    persist::DurableChurnEngine d =
        persist::DurableChurnEngine::recover(store_dir, &rep);
    return engine_digest(d.engine()) + static_cast<double>(rep.cursor);
  });

  fs::remove_all(scratch);
  const auto mismatches = harness.checksum_mismatches();
  for (const std::string& m : mismatches) {
    std::cerr << "checksum mismatch: " << m << "\n";
  }
  harness.write_json(opt.out);
  std::cout << "wrote " << opt.out << "\n";
  return mismatches.empty() ? 0 : 1;
}
