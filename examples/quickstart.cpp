// Quickstart: generate a random ad hoc network, build the paper's AC-LMST
// connected k-hop clustering backbone, and print what came out.
//
//   ./quickstart [N] [avg_degree] [k] [seed]
//
// A malformed or out-of-range number prints the usage line and exits 2.
#include <iostream>

#include "cli_args.hpp"
#include "khop/core/pipeline.hpp"
#include "khop/graph/metrics.hpp"
#include "khop/net/generator.hpp"

int main(int argc, char** argv) {
  std::size_t n = 100;
  double degree = 6.0;
  khop::Hops k = 2;
  std::uint64_t seed = 20050615;
  if (!khop::examples::parse_positional(argc, argv, n, degree, k, seed)) {
    std::cerr << "usage: quickstart [N] [avg_degree] [k] [seed]\n";
    return 2;
  }

  // 1. A random connected unit-disk network in the paper's 100x100 field.
  khop::GeneratorConfig gen;
  gen.num_nodes = n;
  gen.target_degree = degree;
  khop::Rng rng(seed);
  const khop::AdHocNetwork net = khop::generate_network(gen, rng);

  const auto deg = khop::degree_stats(net.graph);
  std::cout << "network: " << net.num_nodes() << " nodes, radius "
            << net.radius << ", mean degree " << deg.mean << "\n";

  // 2. One call: k-hop clustering + A-NCR neighbor selection + LMST gateway
  //    selection, with the Theorem 1/2 validators enabled.
  khop::PipelineOptions opts;
  opts.k = k;
  opts.pipeline = khop::Pipeline::kAcLmst;
  const auto result = khop::build_connected_clustering(net, opts);

  std::cout << "k = " << k << " clustering: "
            << result.clustering.num_clusters() << " clusterheads in "
            << result.clustering.election_rounds << " election rounds\n";
  std::cout << "backbone (" << khop::pipeline_name(result.backbone.pipeline)
            << "): " << result.backbone.gateways.size() << " gateways, CDS size "
            << result.cds.size() << " ("
            << 100.0 * static_cast<double>(result.cds.size()) /
                   static_cast<double>(net.num_nodes())
            << "% of nodes)\n";

  std::cout << "clusterheads:";
  for (const khop::NodeId h : result.backbone.heads) std::cout << ' ' << h;
  std::cout << "\ngateways:";
  for (const khop::NodeId g : result.backbone.gateways) std::cout << ' ' << g;
  std::cout << '\n';
  return 0;
}
