/// \file telemetry_overhead.cpp
/// Telemetry overhead trajectory (PR 7): every required khop.bench kernel
/// plus churn_event, each timed twice — `telemetry_off` (runtime toggle off:
/// the one-branch disabled path) and `telemetry_on` (spans + metrics
/// recording live). Checksums must be identical across the two variants of
/// every kernel: telemetry is observational only, and the harness plus
/// tools/validate_bench_json.py both enforce the cross-variant match.
///
/// Acceptance gate (ISSUE 7): telemetry_on / telemetry_off wall-time ratio
/// on engine_flood <= 1.05; the disabled path <= 1.01 vs a KHOP_TELEMETRY=0
/// build (the latter is checked by building the gate off locally; this
/// binary documents the runtime-toggle cost).
///
/// The trace buffer is dropped between kernels (obs::reset_all) so the
/// enabled variants measure steady-state recording, not snapshot export.
///
/// Usage:
///   bench_telemetry_overhead [--out FILE] [--n N] [--churn-n N]
///                            [--events E] [--k K] [--degree D]
///                            [--min-seconds S] [--seed S]
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "../examples/cli_args.hpp"
#include "harness/harness.hpp"
#include "khop/cluster/clustering.hpp"
#include "khop/dynamic/churn_engine.hpp"
#include "khop/dynamic/churn_trace.hpp"
#include "khop/gateway/backbone.hpp"
#include "khop/net/generator.hpp"
#include "khop/obs/telemetry.hpp"
#include "khop/runtime/workspace.hpp"
#include "khop/sim/engine.hpp"
#include "khop/sim/protocols/neighborhood.hpp"

namespace {

using namespace khop;

struct Options {
  std::string out = "BENCH_PR7.json";
  std::size_t n = 2000;       ///< static-pipeline kernels
  std::size_t churn_n = 1000; ///< churn_event network
  std::size_t events = 150;   ///< events per churn_event rep
  Hops k = 2;
  double degree = 8.0;
  double min_seconds = 0.05;
  std::uint64_t seed = 20260808;
};

constexpr const char* kUsage =
    "usage: bench_telemetry_overhead [--out FILE] [--n N] [--churn-n N]\n"
    "                                [--events E] [--k K] [--degree D]\n"
    "                                [--min-seconds S] [--seed S]\n";

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
    } else if (std::strcmp(arg, "--churn-n") == 0) {
      number(opt.churn_n);
    } else if (std::strcmp(arg, "--events") == 0) {
      number(opt.events);
    } else if (std::strcmp(arg, "--k") == 0) {
      number(opt.k);
      if (opt.k == 0) usage_error("--k must be >= 1");
    } else if (std::strcmp(arg, "--min-seconds") == 0) {
      number(opt.min_seconds);
    } else if (std::strcmp(arg, "--degree") == 0) {
      number(opt.degree);
    } else if (std::strcmp(arg, "--seed") == 0) {
      number(opt.seed);
    } else {
      usage_error(std::string("unknown argument: ") + arg);
    }
  }
  return opt;
}

Graph make_network(const Options& opt, std::size_t n) {
  GeneratorConfig gen;
  gen.num_nodes = n;
  gen.target_degree = opt.degree;
  Rng rng(opt.seed + n);
  return generate_network(gen, rng).graph;
}

/// Times \p fn under both toggle states; same checksum required (enforced
/// by the harness within each variant and by checksum_mismatches across).
template <typename Fn>
void time_both(bench::Harness& h, const std::string& name, std::size_t n,
               Hops k, const Fn& fn) {
  obs::set_enabled(false);
  obs::reset_all();
  h.time_kernel(name, "telemetry_off", n, k, fn);
  obs::set_enabled(true);
  obs::reset_all();
  h.time_kernel(name, "telemetry_on", n, k, fn);
  obs::set_enabled(false);
  obs::reset_all();
}

double ratio(const bench::Harness& h, const std::string& name,
             std::size_t n) {
  double off = 0.0;
  double on = 0.0;
  for (const bench::KernelTiming& r : h.results()) {
    if (r.name != name || r.n != n) continue;
    if (r.variant == "telemetry_off") off = r.wall_ns_min;
    if (r.variant == "telemetry_on") on = r.wall_ns_min;
  }
  return off > 0.0 ? on / off : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  bench::Harness harness("PR7", {3, opt.min_seconds});

  const Graph g = make_network(opt, opt.n);
  const std::size_t n = g.num_nodes();  // LCC fallback may shrink it
  std::cout << "pipeline network: n=" << n << " (m=" << g.num_edges()
            << ")\n";

  Workspace ws;
  time_both(harness, "bounded_bfs", n, opt.k, [&] {
    double sum = 0.0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ws.bfs.run(g, v, opt.k);
      const Hops d = ws.bfs.dist((v + n / 2) % n);
      sum += d == kUnreachable ? -1.0 : d;
    }
    return sum;
  });

  const auto priorities = make_priorities(g, PriorityRule::kLowestId);
  time_both(harness, "clustering", n, opt.k, [&] {
    const Clustering c =
        khop_clustering(g, opt.k, priorities, AffiliationRule::kIdBased, ws);
    double sum = static_cast<double>(c.election_rounds);
    for (NodeId hd : c.heads) sum += hd;
    for (NodeId v = 0; v < c.head_of.size(); ++v) sum += c.head_of[v];
    return sum;
  });

  const Clustering c =
      khop_clustering(g, opt.k, priorities, AffiliationRule::kIdBased, ws);
  time_both(harness, "backbone", n, opt.k, [&] {
    const Backbone b = build_backbone(g, c, Pipeline::kNcLmst, ws);
    double sum = static_cast<double>(b.cds_size());
    for (NodeId gw : b.gateways) sum += gw;
    return sum;
  });

  time_both(harness, "engine_flood", n, opt.k, [&] {
    SyncEngine engine(g, [&](NodeId) {
      return std::make_unique<NeighborhoodDiscoveryAgent>(opt.k);
    });
    engine.run(2 * opt.k + 2);
    double sum = static_cast<double>(engine.stats().receptions +
                                     engine.stats().rounds);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto& agent =
          dynamic_cast<const NeighborhoodDiscoveryAgent&>(engine.agent(v));
      agent.known().for_each([&](NodeId origin, const KnownRecord& rec) {
        sum += origin + 31.0 * rec.dist + 7.0 * rec.parent;
      });
    }
    return sum;
  });

  const Graph cg = make_network(opt, opt.churn_n);
  const std::size_t cn = cg.num_nodes();
  ChurnTraceConfig cfg;
  cfg.num_events = opt.events;
  const ChurnTrace trace = ChurnTrace::generate(cg, cfg, opt.seed + 1);
  std::cout << "churn network: n=" << cn << " (m=" << cg.num_edges() << "), "
            << opt.events << " events/rep\n";
  time_both(harness, "churn_event", cn, opt.k, [&] {
    ChurnEngine engine(cg, opt.k, Pipeline::kAcLmst);
    for (const ChurnEvent& e : trace.events()) engine.apply(e);
    double sum = static_cast<double>(engine.graph().num_alive()) +
                 3.0 * static_cast<double>(engine.graph().num_edges());
    const Clustering& ec = engine.clustering();
    for (NodeId v = 0; v < engine.graph().capacity(); ++v) {
      if (!engine.graph().alive(v)) continue;
      sum += v + 31.0 * ec.head_of[v] + 7.0 * ec.dist_to_head[v];
    }
    return sum;
  });

  const auto mismatches = harness.checksum_mismatches();
  for (const std::string& m : mismatches) {
    std::cerr << "CHECKSUM MISMATCH: " << m << "\n";
  }
  if (!mismatches.empty()) return 1;

  for (const char* kernel : {"bounded_bfs", "clustering", "backbone",
                             "engine_flood"}) {
    std::cout << kernel << " on/off ratio: x" << fmt(ratio(harness, kernel, n), 3)
              << "\n";
  }
  std::cout << "churn_event on/off ratio: x"
            << fmt(ratio(harness, "churn_event", cn), 3) << "\n";

  harness.write_json(opt.out);
  std::cout << "wrote " << opt.out << "\n";
  return 0;
}
