// Example: the application that motivates the paper (section 1) - network-
// wide broadcast with flooding confined to the connected k-hop clustering
// backbone instead of every node.
//
//   ./broadcast_flooding [N] [avg_degree] [k] [seed]
//
// A malformed or out-of-range number prints the usage line and exits 2.
//
// Builds one network, constructs the backbone with each pipeline, and shows
// how many forwarding transmissions a broadcast costs compared with blind
// flooding, all while delivering to every node.
#include <iostream>

#include "cli_args.hpp"
#include "khop/cds/broadcast.hpp"
#include "khop/core/pipeline.hpp"
#include "khop/exp/table.hpp"
#include "khop/net/generator.hpp"

int main(int argc, char** argv) {
  std::size_t n = 150;
  double degree = 6.0;
  khop::Hops k = 2;
  std::uint64_t seed = 7;
  if (!khop::examples::parse_positional(argc, argv, n, degree, k, seed)) {
    std::cerr << "usage: broadcast_flooding [N] [avg_degree] [k] [seed]\n";
    return 2;
  }

  khop::GeneratorConfig gen;
  gen.num_nodes = n;
  gen.target_degree = degree;
  khop::Rng rng(seed);
  const khop::AdHocNetwork net = khop::generate_network(gen, rng);

  const khop::BroadcastResult blind = khop::blind_flood(net.graph, 0);
  std::cout << "blind flooding from node 0: " << blind.transmissions
            << " transmissions, " << blind.rounds << " rounds, delivered "
            << blind.delivered << "/" << net.num_nodes() << "\n\n";

  khop::TextTable t({"pipeline", "CDS", "broadcast tx", "saving %", "rounds",
                     "complete"});
  for (const khop::Pipeline p : khop::kAllPipelines) {
    khop::PipelineOptions opts;
    opts.k = k;
    opts.pipeline = p;
    const auto r = khop::build_connected_clustering(net, opts);
    const khop::BroadcastResult flood =
        khop::cds_flood(net.graph, r.clustering, r.backbone, 0);
    const double saving =
        100.0 *
        (1.0 - static_cast<double>(flood.transmissions) /
                   static_cast<double>(blind.transmissions));
    t.add_row({std::string(khop::pipeline_name(p)),
               std::to_string(r.cds.size()),
               std::to_string(flood.transmissions), khop::fmt(saving, 1),
               std::to_string(flood.rounds), flood.complete ? "yes" : "NO"});
  }
  t.print(std::cout);
  std::cout << "\n(k = " << k << ", N = " << net.num_nodes()
            << ", target degree " << degree << ")\n";
  return 0;
}
