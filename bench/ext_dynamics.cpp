/// \file ext_dynamics.cpp
/// Churn benchmark (PR 6): continuous maintenance under fault injection.
///
/// Emits the schema-versioned khop.bench trajectory (`BENCH_PR6.json` by
/// default) with three kernel groups:
///
///  * The four required trajectory kernels (bounded_bfs, clustering,
///    backbone, engine_flood) at the churn network's realized size, so the
///    file stands alone under tools/validate_bench_json.py.
///  * `churn_event`: the same mixed event trace replayed `legacy` (the naive
///    full-recompute maintainer plus a from-scratch backbone rebuild after
///    every event — what you pay without incremental repair) vs `workspace`
///    (ChurnEngine's scoped incremental repair). The checksum digests the
///    final topology, affiliation, and backbone, so it is equal across
///    variants iff the incremental engine ends bit-exact where the full
///    recompute does.
///  * `churn_engine`: the acceptance-scale run — >= 10^4 mixed events on an
///    n >= 10^4 network through ChurnEngine alone, zero full rebuilds,
///    periodic bit-exact audits enabled. The checksum digests the final
///    engine state.
///
/// Usage:
///   bench_ext_dynamics [--out FILE] [--n N] [--events E]
///                      [--engine-n N] [--engine-events E] [--audit-every A]
///                      [--k K] [--degree D] [--min-seconds S] [--seed S]
///
/// `--engine-events 0` skips the acceptance-scale kernel (CI re-emits only
/// the comparison point and diffs it against the committed trajectory).
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "../examples/cli_args.hpp"
#include "harness/harness.hpp"
#include "khop/dynamic/churn_engine.hpp"
#include "khop/dynamic/churn_trace.hpp"
#include "khop/net/generator.hpp"
#include "khop/runtime/workspace.hpp"
#include "khop/sim/protocols/neighborhood.hpp"
#include "oracles/churn_reference.hpp"

namespace {

using namespace khop;

struct Options {
  std::string out = "BENCH_PR6.json";
  std::size_t n = 1000;            ///< churn_event comparison network
  std::size_t events = 150;        ///< events per comparison replay
  std::size_t engine_n = 10000;    ///< acceptance-scale network
  std::size_t engine_events = 12000;
  std::size_t audit_every = 4000;  ///< acceptance-run audit cadence
  Hops k = 2;
  double degree = 8.0;
  double min_seconds = 0.05;
  std::uint64_t seed = 20260808;
};

constexpr const char* kUsage =
    "usage: bench_ext_dynamics [--out FILE] [--n N] [--events E]\n"
    "                          [--engine-n N] [--engine-events E]\n"
    "                          [--audit-every A] [--k K] [--degree D]\n"
    "                          [--min-seconds S] [--seed S]\n";

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
    } else if (std::strcmp(arg, "--engine-n") == 0) {
      number(opt.engine_n);
    } else if (std::strcmp(arg, "--engine-events") == 0) {
      number(opt.engine_events);
    } else if (std::strcmp(arg, "--audit-every") == 0) {
      number(opt.audit_every);
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

Graph make_network(const Options& opt, std::size_t n) {
  GeneratorConfig gen;
  gen.num_nodes = n;
  gen.target_degree = opt.degree;
  Rng rng(opt.seed + n);
  return generate_network(gen, rng).graph;
}

ChurnTrace make_trace(const Graph& g0, std::size_t events,
                      std::uint64_t seed) {
  ChurnTraceConfig cfg;
  cfg.num_events = events;
  cfg.burst_at = events / 4;
  cfg.burst_radius = 1;
  cfg.partition_at = events / 2;
  cfg.partition_radius = 2;
  cfg.rejoin_after = std::max<std::size_t>(10, events / 20);
  return ChurnTrace::generate(g0, cfg, seed);
}

/// Order-independent digest of topology + affiliation + backbone. All terms
/// are integer-valued and well inside double precision, so the sums are
/// exact: equal digests across variants mean bit-identical final state.
double state_digest(const DynamicGraph& g, const std::vector<NodeId>& head_of,
                    const std::vector<Hops>& dist, const Backbone& b) {
  double sum = static_cast<double>(g.num_alive()) +
               3.0 * static_cast<double>(g.num_edges());
  for (NodeId v = 0; v < g.capacity(); ++v) {
    if (!g.alive(v)) continue;
    sum += v + 31.0 * head_of[v] + 7.0 * dist[v];
  }
  for (NodeId h : b.heads) sum += 11.0 * h;
  for (NodeId gw : b.gateways) sum += 13.0 * gw;
  for (const auto& [u, v] : b.virtual_links) sum += 17.0 * u + 19.0 * v;
  return sum;
}

/// The engine's backbone with sorted rows (the incremental maintenance does
/// not keep vector order; the digest compares sets either way, sorting just
/// mirrors what the audits compare).
Backbone sorted_backbone(const ChurnEngine& engine) {
  Backbone b = engine.backbone();
  std::sort(b.heads.begin(), b.heads.end());
  std::sort(b.gateways.begin(), b.gateways.end());
  std::sort(b.virtual_links.begin(), b.virtual_links.end());
  return b;
}

/// The four kernels every khop.bench trajectory must carry, at the churn
/// network's size (single variant each; the cross-variant story of this
/// file is churn_event below).
void bench_required_kernels(bench::Harness& h, const Graph& g, Hops k) {
  const std::size_t n = g.num_nodes();
  Workspace ws;
  h.time_kernel("bounded_bfs", "workspace", n, k, [&] {
    double sum = 0.0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ws.bfs.run(g, v, k);
      const Hops d = ws.bfs.dist((v + n / 2) % n);
      sum += d == kUnreachable ? -1.0 : d;
    }
    return sum;
  });
  const auto priorities = make_priorities(g, PriorityRule::kLowestId);
  h.time_kernel("clustering", "workspace", n, k, [&] {
    const Clustering c =
        khop_clustering(g, k, priorities, AffiliationRule::kIdBased, ws);
    double sum = static_cast<double>(c.election_rounds);
    for (NodeId hd : c.heads) sum += hd;
    for (NodeId v = 0; v < c.head_of.size(); ++v) sum += c.head_of[v];
    return sum;
  });
  const Clustering c =
      khop_clustering(g, k, priorities, AffiliationRule::kIdBased, ws);
  h.time_kernel("backbone", "workspace", n, k, [&] {
    const Backbone b = build_backbone(g, c, Pipeline::kAcLmst, ws);
    double sum = static_cast<double>(b.cds_size());
    for (NodeId gw : b.gateways) sum += gw;
    return sum;
  });
  h.time_kernel("engine_flood", "workspace", n, k, [&] {
    SyncEngine engine(g, [&](NodeId) {
      return std::make_unique<NeighborhoodDiscoveryAgent>(k);
    });
    engine.run(2 * k + 2);
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
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  bench::Harness harness("PR6", {3, opt.min_seconds});
  const Pipeline pipeline = Pipeline::kAcLmst;

  // --- Comparison point: full recompute vs incremental over one trace. ---
  const Graph g0 = make_network(opt, opt.n);
  const std::size_t n = g0.num_nodes();  // LCC fallback may shrink it
  std::cout << "churn comparison network: n=" << n << " (m=" << g0.num_edges()
            << "), " << opt.events << " events/replay\n";
  bench_required_kernels(harness, g0, opt.k);

  const ChurnTrace trace = make_trace(g0, opt.events, opt.seed + 1);
  harness.time_kernel("churn_event", "legacy", n, opt.k, [&] {
    ReferenceChurnMaintainer ref(g0, opt.k, pipeline);
    Backbone b;
    for (const ChurnEvent& e : trace.events()) {
      ref.apply(e);
      b = ref.rebuild_backbone();  // what per-event full rebuild costs
    }
    return state_digest(ref.graph(), ref.head_of(), ref.dist_to_head(), b);
  });
  harness.time_kernel("churn_event", "workspace", n, opt.k, [&] {
    ChurnEngine engine(g0, opt.k, pipeline);
    for (const ChurnEvent& e : trace.events()) engine.apply(e);
    return state_digest(engine.graph(), engine.clustering().head_of,
                        engine.clustering().dist_to_head,
                        sorted_backbone(engine));
  });
  std::cout << "churn_event speedup (full rebuild / incremental): x"
            << fmt(harness.speedup("churn_event", n), 2) << "\n";

  // --- Acceptance-scale run: incremental engine alone. ---
  if (opt.engine_events > 0) {
    const Graph big = make_network(opt, opt.engine_n);
    const std::size_t bn = big.num_nodes();
    std::cout << "engine network: n=" << bn << " (m=" << big.num_edges()
              << "), " << opt.engine_events << " events, audit every "
              << opt.audit_every << "\n";
    const ChurnTrace big_trace =
        make_trace(big, opt.engine_events, opt.seed + 2);
    ChurnStats last_stats;
    const auto& row = harness.time_kernel(
        "churn_engine", "incremental", bn, opt.k, [&] {
          ChurnEngineOptions eopts;
          eopts.audit_every = opt.audit_every;
          ChurnEngine engine(big, opt.k, pipeline, eopts);
          engine.run(big_trace);  // audits periodically, throws on failure
          last_stats = engine.stats();
          return state_digest(engine.graph(), engine.clustering().head_of,
                              engine.clustering().dist_to_head,
                              sorted_backbone(engine));
        });
    const double events_per_sec =
        1e9 * static_cast<double>(last_stats.events) / row.wall_ns_min;
    const double locality =
        static_cast<double>(last_stats.touched_nodes) /
        (static_cast<double>(last_stats.events) * static_cast<double>(bn));
    const double reaffil =
        last_stats.orphans == 0
            ? 0.0
            : static_cast<double>(last_stats.reaffiliations) /
                  static_cast<double>(last_stats.orphans);
    std::cout << "  events/sec (incl. audits): " << fmt(events_per_sec, 0)
              << "  repair locality (touched/n per event): "
              << fmt(locality, 5) << "\n  re-affiliation ratio: "
              << fmt(reaffil, 3) << "  partitions: " << last_stats.partitions
              << "  merges: " << last_stats.merges
              << "  audits: " << last_stats.audits
              << "  full rebuilds: " << last_stats.full_rebuilds << "\n";
  }

  const auto mismatches = harness.checksum_mismatches();
  for (const std::string& m : mismatches) {
    std::cerr << "CHECKSUM MISMATCH: " << m << "\n";
  }
  if (!mismatches.empty()) return 1;

  harness.write_json(opt.out);
  std::cout << "wrote " << opt.out << "\n";
  return 0;
}
