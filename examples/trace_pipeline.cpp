/// \file trace_pipeline.cpp
/// End-to-end telemetry demo: runs the full static pipeline (clustering ->
/// NC-LMST backbone -> neighborhood-discovery flood) plus a churn-engine
/// maintenance run with telemetry enabled, then exports
///
///  * a Chrome trace-event timeline (khop.trace v1) — load it in Perfetto
///    (ui.perfetto.dev) or chrome://tracing, and
///  * the metrics registry snapshot (khop.metrics v1) with the engine.*,
///    churn.*, and backbone.* instruments filled in.
///
/// Both files are validated in CI (tools/validate_trace_json.py); the
/// committed reference artifact docs/traces/trace_pipeline.json was
/// produced by this program at the default sizes.
///
/// Usage:
///   example_trace_pipeline [--n N] [--events E] [--k K] [--degree D]
///                          [--threads T] [--seed S]
///                          [--trace-out FILE] [--metrics-out FILE]
///
/// A malformed or out-of-range number prints the usage line and exits 2.
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "cli_args.hpp"
#include "khop/cluster/clustering.hpp"
#include "khop/dynamic/churn_engine.hpp"
#include "khop/dynamic/churn_trace.hpp"
#include "khop/gateway/backbone.hpp"
#include "khop/net/generator.hpp"
#include "khop/obs/metrics.hpp"
#include "khop/obs/telemetry.hpp"
#include "khop/obs/trace.hpp"
#include "khop/runtime/thread_pool.hpp"
#include "khop/runtime/workspace.hpp"
#include "khop/sim/engine.hpp"
#include "khop/sim/protocols/neighborhood.hpp"

namespace {

using namespace khop;

struct Options {
  std::size_t n = 2000;
  std::size_t events = 500;
  Hops k = 2;
  double degree = 8.0;
  std::size_t threads = 2;
  std::uint64_t seed = 20260808;
  std::string trace_out = "trace_pipeline.json";
  std::string metrics_out = "metrics_pipeline.json";
};

constexpr const char* kUsage =
    "usage: example_trace_pipeline [--n N] [--events E] [--k K] "
    "[--degree D]\n"
    "         [--threads T] [--seed S] [--trace-out FILE] "
    "[--metrics-out FILE]\n";

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
    } else if (arg == "--degree") {
      need_number("--degree", opt.degree);
    } else if (arg == "--threads") {
      need_number("--threads", opt.threads);
    } else if (arg == "--seed") {
      need_number("--seed", opt.seed);
    } else if (arg == "--trace-out") {
      opt.trace_out = need_value("--trace-out");
    } else if (arg == "--metrics-out") {
      opt.metrics_out = need_value("--metrics-out");
    } else {
      std::cerr << "unknown argument: " << arg << "\n" << kUsage;
      std::exit(2);
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);

  obs::set_enabled(true);

  GeneratorConfig gen;
  gen.num_nodes = opt.n;
  gen.target_degree = opt.degree;
  Rng rng(opt.seed);
  const Graph g = generate_network(gen, rng).graph;
  std::cout << "network: n=" << g.num_nodes() << " m=" << g.num_edges()
            << " k=" << opt.k << "\n";

  // Static pipeline: clustering -> backbone (parallel sweep) -> flood.
  ThreadPool pool(opt.threads);
  Workspace ws;
  const auto priorities = make_priorities(g, PriorityRule::kLowestId);
  const Clustering c =
      khop_clustering(g, opt.k, priorities, AffiliationRule::kIdBased, ws);
  const Backbone b = build_backbone(g, c, Pipeline::kNcLmst, pool);
  std::cout << "clustering: " << c.heads.size() << " heads in "
            << c.election_rounds << " rounds; backbone: "
            << b.gateways.size() << " gateways, " << b.virtual_links.size()
            << " virtual links\n";

  SyncEngine engine(g, [&](NodeId) {
    return std::make_unique<NeighborhoodDiscoveryAgent>(opt.k);
  });
  engine.run(4 * opt.k + 4, pool);
  std::cout << "flood: " << engine.stats().rounds << " rounds, "
            << engine.stats().transmissions << " transmissions, "
            << engine.stats().receptions << " receptions\n";

  // Churn maintenance: a mixed event trace through the incremental engine.
  ChurnTraceConfig cfg;
  cfg.num_events = opt.events;
  const ChurnTrace trace = ChurnTrace::generate(g, cfg, opt.seed + 1);
  ChurnEngine churn(g, opt.k, Pipeline::kAcLmst);
  for (const ChurnEvent& e : trace.events()) churn.apply(e);
  const std::string audit = churn.audit();
  if (!audit.empty()) {
    std::cerr << "churn audit failed: " << audit << "\n";
    return 1;
  }
  churn.publish_stats();  // unpublished delta -> churn.* registry counters
  const ChurnStats& cs = churn.stats();
  std::cout << "churn: " << cs.events << " events, " << cs.orphans
            << " orphans, " << cs.reaffiliations << " reaffiliations, "
            << cs.heads_resweeped << " resweeps\n";

  // Export. Quiescent: the pool is idle and the churn engine is serial.
  pool.wait_idle();
  obs::Tracer::global().write_chrome_json(opt.trace_out);
  obs::Registry::global().write_json(opt.metrics_out);
  std::cout << "wrote " << opt.trace_out << " ("
            << obs::Tracer::global().num_events() << " spans) and "
            << opt.metrics_out << "\n";
  return 0;
}
