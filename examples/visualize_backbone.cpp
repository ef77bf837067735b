// Example: export a network + backbone for plotting. Writes three artifacts
// next to the working directory:
//   khop_network.txt  - positions/radius (re-loadable via read_network)
//   khop_layout.txt   - id x y role cluster dist (gnuplot-friendly)
//   khop_backbone.dot - Graphviz with heads/gateways highlighted
//                       (render: neato -n2 -Tpng khop_backbone.dot -o out.png)
//
//   ./visualize_backbone [N] [avg_degree] [k] [seed]
//
// A malformed or out-of-range number prints the usage line and exits 2.
#include <fstream>
#include <iostream>

#include "cli_args.hpp"
#include "khop/core/pipeline.hpp"
#include "khop/io/export.hpp"
#include "khop/net/generator.hpp"

int main(int argc, char** argv) {
  std::size_t n = 100;
  double degree = 6.0;
  khop::Hops k = 3;
  std::uint64_t seed = 2008;
  if (!khop::examples::parse_positional(argc, argv, n, degree, k, seed)) {
    std::cerr << "usage: visualize_backbone [N] [avg_degree] [k] [seed]\n";
    return 2;
  }

  khop::GeneratorConfig gen;
  gen.num_nodes = n;
  gen.target_degree = degree;
  khop::Rng rng(seed);
  const khop::AdHocNetwork net = khop::generate_network(gen, rng);

  khop::PipelineOptions opts;
  opts.k = k;
  const auto r = khop::build_connected_clustering(net, opts);

  {
    std::ofstream f("khop_network.txt");
    khop::write_network(f, net);
  }
  {
    std::ofstream f("khop_layout.txt");
    khop::write_layout(f, net, r.clustering, r.backbone);
  }
  {
    std::ofstream f("khop_backbone.dot");
    khop::write_dot(f, net, r.clustering, r.backbone);
  }

  std::cout << "wrote khop_network.txt, khop_layout.txt, khop_backbone.dot\n"
            << "network: " << net.num_nodes() << " nodes, "
            << r.clustering.num_clusters() << " clusterheads, "
            << r.backbone.gateways.size() << " gateways (k = " << k
            << ", AC-LMST)\n"
            << "render:  neato -n2 -Tpng khop_backbone.dot -o backbone.png\n"
            << "gnuplot: plot 'khop_layout.txt' using 2:3:4 with points "
               "palette\n";
  return 0;
}
