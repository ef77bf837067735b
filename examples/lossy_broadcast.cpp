// Example: delivery-aware broadcast over lossy radio links.
//
//   ./lossy_broadcast [N] [avg_degree] [k] [seed]
//
// A malformed or out-of-range number prints the usage line and exits 2.
//
// Builds one connected topology, then walks the radio-model ladder - ideal
// unit disk, quasi-UDG, log-normal shadowing - showing for each model the
// link layer it induces (link count, mean delivery probability) and what a
// network-wide broadcast actually delivers under per-link Bernoulli drops,
// blind vs CDS-confined, without and with a small link-retry budget.
#include <iostream>
#include <memory>
#include <vector>

#include "cli_args.hpp"
#include "khop/cds/broadcast.hpp"
#include "khop/core/pipeline.hpp"
#include "khop/exp/table.hpp"
#include "khop/net/generator.hpp"
#include "khop/radio/delivery.hpp"
#include "khop/radio/lossy_flood.hpp"
#include "khop/radio/network_link.hpp"

int main(int argc, char** argv) {
  using namespace khop;

  std::size_t n = 150;
  double degree = 6.0;
  Hops k = 2;
  std::uint64_t seed = 7;
  if (!examples::parse_positional(argc, argv, n, degree, k, seed)) {
    std::cerr << "usage: lossy_broadcast [N] [avg_degree] [k] [seed]\n";
    return 2;
  }

  GeneratorConfig gen;
  gen.num_nodes = n;
  gen.target_degree = degree;
  Rng rng(seed);
  AdHocNetwork net = generate_network(gen, rng);
  std::cout << "topology: N = " << net.num_nodes() << ", radius "
            << fmt(net.radius, 2) << ", unit-disk links "
            << net.graph.num_edges() << "\n\n";

  struct Entry {
    std::string label;
    std::unique_ptr<LinkModel> model;
  };
  std::vector<Entry> ladder;
  ladder.push_back({"unit-disk", std::make_unique<UnitDiskModel>(net.radius)});
  ladder.push_back({"quasi-udg 0.6r",
                    std::make_unique<QuasiUnitDiskModel>(0.6 * net.radius,
                                                         net.radius)});
  LogNormalShadowingModel::Params shadow;
  shadow.r_half = net.radius;
  ladder.push_back(
      {"log-normal", std::make_unique<LogNormalShadowingModel>(shadow)});

  // Flood from a max-degree node of the nominal graph so the first hop is
  // not a degenerate single link.
  NodeId source = 0;
  for (NodeId v = 1; v < net.num_nodes(); ++v) {
    if (net.graph.degree(v) > net.graph.degree(source)) source = v;
  }
  std::cout << "flood source: node " << source << " (degree "
            << net.graph.degree(source) << ")\n\n";

  TextTable t({"model", "links", "mean p", "flood", "retry", "delivered",
               "tx", "drops", "retx"});
  for (const Entry& entry : ladder) {
    const LinkLayer layer = rebuild_with_model(net, *entry.model);
    // Cluster on the model's own possible-links topology.
    PipelineOptions opts;
    opts.k = k;
    const auto r = build_connected_clustering(net, opts);
    const std::vector<bool> cds_mask = cds_forwarder_mask(
        net.graph, r.clustering, r.backbone, CdsFloodModel::kMemberTrees);

    for (const bool confined : {false, true}) {
      for (const std::size_t retry : {std::size_t{0}, std::size_t{2}}) {
        LossyFloodOptions fo;
        fo.seed = seed + (confined ? 1000 : 0) + retry;
        fo.retry_budget = retry;
        if (confined) fo.forwarders = cds_mask;
        const LossyFloodResult res = lossy_flood(layer, source, fo);
        t.add_row({entry.label, std::to_string(layer.links().size()),
                   fmt(layer.mean_probability(), 3),
                   confined ? "CDS" : "blind", std::to_string(retry),
                   std::to_string(res.delivered) + "/" +
                       std::to_string(net.num_nodes()),
                   std::to_string(res.stats.transmissions),
                   std::to_string(res.stats.drops),
                   std::to_string(res.stats.retransmissions)});
      }
    }
  }
  t.print(std::cout);

  // Restore the ideal graph before leaving (the walkthrough mutated it).
  net.rebuild_graph();
  std::cout << "\n(k = " << k << "; unit-disk rows drop nothing - the legacy "
               "pipeline is the zero-loss special case. Blind flooding "
               "absorbs loss through redundancy; the thin CDS flood is the "
               "fragile one, and a small link-retry budget claws a large "
               "share of its receivers back.)\n";
  return 0;
}
