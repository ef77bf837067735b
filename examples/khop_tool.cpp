// khop_tool - command-line front end for the library.
//
//   khop_tool generate N D seed            > network.txt
//   khop_tool cluster  k pipeline          < network.txt   > layout.txt
//                                           (summary on stderr; layout table
//                                           "id x y role cluster dist_to_head"
//                                           on stdout)
//   khop_tool route    k src dst           < network.txt
//   khop_tool dot      k                   < network.txt   > backbone.dot
//
// pipeline: nc-mesh | ac-mesh | nc-lmst | ac-lmst | g-mst (default ac-lmst)
//
// Numeric arguments must be whole, in-range numbers of their type; anything
// else prints the usage line and exits 2 before stdin is read.
#include <iostream>
#include <optional>
#include <string>

#include "cli_args.hpp"
#include "khop/cds/routing.hpp"
#include "khop/core/pipeline.hpp"
#include "khop/io/export.hpp"
#include "khop/net/generator.hpp"

namespace {

using namespace khop;
using examples::parse_number;

/// Prints the usage line for \p command_usage and returns exit status 2.
int usage(const char* command_usage) {
  std::cerr << "usage: khop_tool " << command_usage << '\n';
  return 2;
}

std::optional<Pipeline> parse_pipeline(const std::string& s) {
  for (const Pipeline p : kAllPipelines) {
    std::string name(pipeline_name(p));
    for (char& ch : name) ch = static_cast<char>(std::tolower(ch));
    if (s == name) return p;
  }
  return std::nullopt;
}

int cmd_generate(int argc, char** argv) {
  constexpr const char* kUsage = "generate N D seed";
  if (argc < 4) return usage(kUsage);
  const auto n = parse_number<std::size_t>(argv[1]);
  const auto degree = parse_number<double>(argv[2]);
  const auto seed = parse_number<std::uint64_t>(argv[3]);
  if (!n || !degree || !seed) return usage(kUsage);
  GeneratorConfig cfg;
  cfg.num_nodes = *n;
  cfg.target_degree = *degree;
  Rng rng(*seed);
  const AdHocNetwork net = generate_network(cfg, rng);
  write_network(std::cout, net);
  std::cerr << "generated " << net.num_nodes() << " nodes, radius "
            << net.radius << '\n';
  return 0;
}

int cmd_cluster(int argc, char** argv) {
  constexpr const char* kUsage = "cluster k [pipeline] < network.txt";
  if (argc < 2) return usage(kUsage);
  const auto k = parse_number<Hops>(argv[1]);
  if (!k) return usage(kUsage);
  PipelineOptions opts;
  opts.k = *k;
  if (argc > 2) {
    const auto p = parse_pipeline(argv[2]);
    if (!p) {
      std::cerr << "unknown pipeline '" << argv[2] << "'\n";
      return 2;
    }
    opts.pipeline = *p;
  }
  const AdHocNetwork net = read_network(std::cin);
  const auto r = build_connected_clustering(net, opts);
  std::cerr << r.clustering.num_clusters() << " clusterheads, "
            << r.backbone.gateways.size() << " gateways, CDS "
            << r.cds.size() << '\n';
  write_layout(std::cout, net, r.clustering, r.backbone);
  return 0;
}

int cmd_route(int argc, char** argv) {
  constexpr const char* kUsage = "route k src dst < network.txt";
  if (argc < 4) return usage(kUsage);
  const auto k = parse_number<Hops>(argv[1]);
  const auto src = parse_number<NodeId>(argv[2]);
  const auto dst = parse_number<NodeId>(argv[3]);
  if (!k || !src || !dst) return usage(kUsage);
  const AdHocNetwork net = read_network(std::cin);
  PipelineOptions opts;
  opts.k = *k;
  const auto r = build_connected_clustering(net, opts);
  const BackboneRouter router(net.graph, r.clustering, r.backbone);
  const Route route = router.route(*src, *dst);
  std::cout << "route (" << route.hops() << " hops):";
  for (NodeId v : route.path) std::cout << ' ' << v;
  std::cout << "\nstretch: "
            << (*src == *dst ? 1.0 : router.stretch(*src, *dst)) << '\n';
  return 0;
}

int cmd_dot(int argc, char** argv) {
  constexpr const char* kUsage = "dot k < network.txt > out.dot";
  if (argc < 2) return usage(kUsage);
  const auto k = parse_number<Hops>(argv[1]);
  if (!k) return usage(kUsage);
  const AdHocNetwork net = read_network(std::cin);
  PipelineOptions opts;
  opts.k = *k;
  const auto r = build_connected_clustering(net, opts);
  write_dot(std::cout, net, r.clustering, r.backbone);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: khop_tool {generate|cluster|route|dot} ...\n";
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "generate") return cmd_generate(argc - 1, argv + 1);
    if (cmd == "cluster") return cmd_cluster(argc - 1, argv + 1);
    if (cmd == "route") return cmd_route(argc - 1, argv + 1);
    if (cmd == "dot") return cmd_dot(argc - 1, argv + 1);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  std::cerr << "unknown command '" << cmd << "'\n";
  return 2;
}
