// Downsampled million-node acceptance check: at a few thousand nodes the
// Hilbert-relabeled pipeline must stay bit-exact against the preserved
// reference implementations (the oracle contract of the relabeled runs),
// serial and parallel at thread counts {1, 2, hardware}, and its
// inverse-mapped backbone must validate as a k-hop CDS of the original
// graph. Carries the `slow` ctest label.
#include <gtest/gtest.h>

#include <vector>

#include "khop/cds/cds.hpp"
#include "khop/graph/relabel.hpp"
#include "khop/graph/spatial_grid.hpp"
#include "khop/net/generator.hpp"
#include "khop/runtime/thread_pool.hpp"
#include "khop/runtime/workspace.hpp"
#include "oracles/cluster_reference.hpp"
#include "oracles/gateway_reference.hpp"

namespace khop {
namespace {

TEST(RelabelSlow, RelabeledPipelineMatchesReferenceAtScale) {
  Workspace ws;
  ThreadPool pool_one(1), pool_two(2), pool_hw(0);
  GeneratorConfig gen;
  gen.num_nodes = 3000;
  gen.target_degree = 7.0;
  Rng rng(103);
  const AdHocNetwork net = generate_network(gen, rng, ws);

  const Relabeling r = sfc_relabeling(net.positions);
  const Graph g2 = relabel(net.graph, r);

  // The relabeled graph is the same unit-disk graph built from the permuted
  // positions: structural cross-check against the streamed builder.
  const std::vector<Point2> pts2 = relabel(net.positions, r);
  SpatialGrid grid;
  EXPECT_EQ(g2.edge_list(),
            build_unit_disk_graph_streamed(pts2, net.radius, grid).edge_list());

  std::vector<PriorityKey> prios(net.graph.num_nodes());
  for (NodeId u = 0; u < net.graph.num_nodes(); ++u) {
    prios[u] = {static_cast<double>(u), u};
  }
  const auto carried = relabel(prios, r);

  const Clustering direct = khop_clustering(
      net.graph, 2, prios, AffiliationRule::kDistanceBased, ws);
  const Clustering c2 = khop_clustering(
      g2, 2, carried, AffiliationRule::kDistanceBased, ws);
  const Clustering want_c2 =
      reference::khop_clustering(g2, 2, carried, AffiliationRule::kDistanceBased);
  EXPECT_EQ(c2.heads, want_c2.heads);
  EXPECT_EQ(c2.head_of, want_c2.head_of);
  EXPECT_EQ(c2.dist_to_head, want_c2.dist_to_head);
  EXPECT_EQ(c2.election_rounds, want_c2.election_rounds);

  // Distinct carried keys make the election equivariant.
  const Clustering c_mapped = to_original_ids(c2, r);
  EXPECT_EQ(c_mapped.heads, direct.heads);
  EXPECT_EQ(c_mapped.dist_to_head, direct.dist_to_head);
  EXPECT_EQ(c_mapped.election_rounds, direct.election_rounds);

  for (const Pipeline p : kAllPipelines) {
    const Backbone want = reference::build_backbone(g2, c2, p);
    const Backbone serial = build_backbone(g2, c2, p, ws);
    EXPECT_EQ(serial.heads, want.heads);
    EXPECT_EQ(serial.gateways, want.gateways);
    EXPECT_EQ(serial.virtual_links, want.virtual_links);
    for (ThreadPool* pool : {&pool_one, &pool_two, &pool_hw}) {
      const Backbone par = build_backbone(g2, c2, p, *pool);
      EXPECT_EQ(par.heads, want.heads);
      EXPECT_EQ(par.gateways, want.gateways);
      EXPECT_EQ(par.virtual_links, want.virtual_links);
    }
    const Backbone mapped = to_original_ids(serial, r);
    const std::string err = validate_k_cds(net.graph, c_mapped, mapped);
    EXPECT_TRUE(err.empty()) << "pipeline " << static_cast<int>(p) << ": "
                             << err;
  }
}

}  // namespace
}  // namespace khop
