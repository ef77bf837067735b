// Space-filling-curve relabeling properties: round-trip identity, BFS
// distance equivariance, election equivariance under carried priorities,
// and — the oracle contract — bit-exact reference equivalence of the full
// pipeline run on the relabeled graph, serial and parallel.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "khop/cds/cds.hpp"
#include "khop/common/rng.hpp"
#include "khop/graph/bfs.hpp"
#include "khop/graph/relabel.hpp"
#include "khop/graph/spatial_grid.hpp"
#include "khop/net/generator.hpp"
#include "khop/runtime/thread_pool.hpp"
#include "khop/runtime/workspace.hpp"
#include "oracles/bfs_reference.hpp"
#include "oracles/cluster_reference.hpp"
#include "oracles/gateway_reference.hpp"

namespace khop {
namespace {

AdHocNetwork random_network(std::size_t n, double degree, std::uint64_t seed) {
  GeneratorConfig gen;
  gen.num_nodes = n;
  gen.target_degree = degree;
  Rng rng(seed);
  return generate_network(gen, rng);
}

TEST(Hilbert, OrderTwoMatchesHandComputedCurve) {
  // The order-2 curve visits the 4x4 grid in the classic U shape.
  EXPECT_EQ(hilbert_d_index(0, 0, 2), 0u);
  EXPECT_EQ(hilbert_d_index(1, 0, 2), 1u);
  EXPECT_EQ(hilbert_d_index(1, 1, 2), 2u);
  EXPECT_EQ(hilbert_d_index(0, 1, 2), 3u);
  EXPECT_EQ(hilbert_d_index(0, 2, 2), 4u);
  EXPECT_EQ(hilbert_d_index(3, 0, 2), 15u);
}

TEST(Hilbert, IsABijectionAndNeighborsAreAdjacent) {
  constexpr std::uint32_t order = 4;
  constexpr std::uint32_t side = 1u << order;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cell_of(side * side);
  std::set<std::uint64_t> seen;
  for (std::uint32_t x = 0; x < side; ++x) {
    for (std::uint32_t y = 0; y < side; ++y) {
      const std::uint64_t d = hilbert_d_index(x, y, order);
      ASSERT_LT(d, side * side);
      ASSERT_TRUE(seen.insert(d).second) << "duplicate d-index " << d;
      cell_of[d] = {x, y};
    }
  }
  // Consecutive d-indices are grid neighbors: the continuity that makes the
  // relabeling a locality win.
  for (std::size_t d = 1; d < cell_of.size(); ++d) {
    const auto [x0, y0] = cell_of[d - 1];
    const auto [x1, y1] = cell_of[d];
    const std::uint32_t manhattan =
        (x0 > x1 ? x0 - x1 : x1 - x0) + (y0 > y1 ? y0 - y1 : y1 - y0);
    EXPECT_EQ(manhattan, 1u) << "discontinuity at d=" << d;
  }
}

/// Fraction of nodes with a neighbor in another block when [0, n) is cut
/// into \p blocks near-equal contiguous id ranges: 0 = every neighborhood
/// stays inside one range, 1 = every node sits on a cut.
double range_cut_boundary_fraction(const Graph& g, std::size_t blocks) {
  const std::size_t n = g.num_nodes();
  const auto block_of = [&](NodeId v) { return std::size_t{v} * blocks / n; };
  std::size_t boundary = 0;
  for (NodeId v = 0; v < n; ++v) {
    const auto row = g.neighbors(v);
    boundary += std::any_of(row.begin(), row.end(), [&](NodeId u) {
      return block_of(u) != block_of(v);
    });
  }
  return static_cast<double>(boundary) / static_cast<double>(n);
}

TEST(Relabel, HilbertOrderBeatsRandomOrderOnJitteredGrid) {
  // Jittered grid: side x side points on unit spacing, each perturbed by
  // less than half a cell, connected at radius 1.5 (grid neighbors plus
  // some diagonals) - the regular-density placement where spatial order
  // matters most and every cut's cost is easy to reason about.
  constexpr std::size_t side = 24;
  Rng rng(905);
  std::vector<Point2> pts;
  pts.reserve(side * side);
  for (std::size_t y = 0; y < side; ++y) {
    for (std::size_t x = 0; x < side; ++x) {
      pts.push_back(Point2{static_cast<double>(x) + rng.uniform(-0.3, 0.3),
                           static_cast<double>(y) + rng.uniform(-0.3, 0.3)});
    }
  }
  const Graph g = build_unit_disk_graph(pts, 1.5);

  // Hilbert order: relabel by the SFC of the positions. Random order: a
  // seeded Fisher-Yates permutation (the adversarial baseline - contiguous
  // id ranges become spatially meaningless).
  const Graph hilbert_g = relabel(g, sfc_relabeling(pts));

  Relabeling random = identity_relabeling(g.num_nodes());
  for (std::size_t i = g.num_nodes(); i > 1; --i) {
    std::swap(random.new_of_old[i - 1],
              random.new_of_old[rng.uniform_int(i)]);
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    random.old_of_new[random.new_of_old[v]] = v;
  }
  const Graph random_g = relabel(g, random);

  for (const std::size_t blocks : {2u, 4u, 8u}) {
    const double hq = range_cut_boundary_fraction(hilbert_g, blocks);
    const double rq = range_cut_boundary_fraction(random_g, blocks);
    // Hilbert ranges are compact tiles with perimeter/area cuts; a random
    // order puts nearly every node on a cut. Require a decisive margin.
    EXPECT_LT(hq, 0.5 * rq) << "blocks " << blocks;
    EXPECT_GT(rq, 0.9) << "blocks " << blocks;
  }
  EXPECT_GT(range_cut_boundary_fraction(hilbert_g, 2), 0.0);
}

TEST(Relabel, RoundTripIsBitExact) {
  const AdHocNetwork net = random_network(120, 6.0, 41);
  const Relabeling r = sfc_relabeling(net.positions);
  ASSERT_EQ(r.size(), net.graph.num_nodes());

  // The two directions are mutually inverse permutations.
  for (NodeId u = 0; u < net.graph.num_nodes(); ++u) {
    EXPECT_EQ(r.old_of_new[r.new_of_old[u]], u);
  }

  const Graph permuted = relabel(net.graph, r);
  const Graph back = relabel(permuted, inverse(r));
  EXPECT_EQ(back.edge_list(), net.graph.edge_list());
  EXPECT_EQ(back.num_nodes(), net.graph.num_nodes());

  const std::vector<Point2> pts_permuted = relabel(net.positions, r);
  const std::vector<Point2> pts_back = relabel(pts_permuted, inverse(r));
  for (std::size_t u = 0; u < net.positions.size(); ++u) {
    EXPECT_EQ(pts_back[u].x, net.positions[u].x);
    EXPECT_EQ(pts_back[u].y, net.positions[u].y);
    EXPECT_EQ(pts_permuted[r.new_of_old[u]].x, net.positions[u].x);
  }

  // Identity relabeling is a no-op.
  const Relabeling id = identity_relabeling(net.graph.num_nodes());
  EXPECT_EQ(relabel(net.graph, id).edge_list(), net.graph.edge_list());
}

TEST(Relabel, GraphStructureIsEquivariant) {
  const AdHocNetwork net = random_network(150, 7.0, 43);
  const Relabeling r = sfc_relabeling(net.positions);
  const Graph g2 = relabel(net.graph, r);
  ASSERT_EQ(g2.num_edges(), net.graph.num_edges());
  for (NodeId u = 0; u < net.graph.num_nodes(); ++u) {
    EXPECT_EQ(g2.degree(r.new_of_old[u]), net.graph.degree(u));
    for (NodeId v : net.graph.neighbors(u)) {
      EXPECT_TRUE(g2.has_edge(r.new_of_old[u], r.new_of_old[v]));
    }
  }
}

TEST(Relabel, BfsDistancesAreEquivariant) {
  const AdHocNetwork net = random_network(130, 6.0, 47);
  const Relabeling r = sfc_relabeling(net.positions);
  const Graph g2 = relabel(net.graph, r);
  for (NodeId s = 0; s < net.graph.num_nodes(); s += 11) {
    const BfsTree direct = bfs(net.graph, s);
    const BfsTree mapped = to_original_ids(bfs(g2, r.new_of_old[s]), r);
    EXPECT_EQ(mapped.source, s);
    EXPECT_EQ(mapped.dist, direct.dist);
    // Canonical parents tie-break on raw ids, so only validate the mapped
    // parents as *a* shortest-path tree: parent at distance d-1, adjacent.
    for (NodeId v = 0; v < net.graph.num_nodes(); ++v) {
      if (v == s || mapped.dist[v] == kUnreachable) continue;
      ASSERT_NE(mapped.parent[v], kInvalidNode);
      EXPECT_EQ(mapped.dist[mapped.parent[v]] + 1, mapped.dist[v]);
      EXPECT_TRUE(net.graph.has_edge(mapped.parent[v], v));
    }
  }
}

TEST(Relabel, PriorityKeysAreCarried) {
  const AdHocNetwork net = random_network(90, 6.0, 53);
  const Relabeling r = sfc_relabeling(net.positions);
  const auto prios = make_priorities(net.graph, PriorityRule::kLowestId);
  const auto carried = relabel(prios, r);
  for (NodeId u = 0; u < net.graph.num_nodes(); ++u) {
    EXPECT_EQ(carried[r.new_of_old[u]].key, prios[u].key);
    EXPECT_EQ(carried[r.new_of_old[u]].id, r.new_of_old[u]);
  }
}

TEST(Relabel, ElectionIsEquivariantUnderCarriedPriorities) {
  // Winner selection depends only on priority keys and hop distances, both
  // preserved by the renumbering, so heads, round count and (under the
  // distance rule) every node's distance to its head must match the direct
  // run exactly. head_of itself is NOT compared: distance ties resolve by
  // head id, which legitimately differs between the two id spaces.
  //
  // Equivariance requires *distinct* keys: make_priorities(kLowestId) uses a
  // constant key and encodes the priority in the id tie-break, which the
  // renumbering rewrites. key = old id gives the same total order explicitly.
  Workspace ws;
  const AdHocNetwork net = random_network(140, 6.0, 59);
  const Relabeling r = sfc_relabeling(net.positions);
  const Graph g2 = relabel(net.graph, r);
  std::vector<PriorityKey> prios(net.graph.num_nodes());
  for (NodeId u = 0; u < net.graph.num_nodes(); ++u) {
    prios[u] = {static_cast<double>(u), u};
  }
  const auto carried = relabel(prios, r);
  for (Hops k = 1; k <= 3; ++k) {
    const Clustering direct = khop_clustering(
        net.graph, k, prios, AffiliationRule::kDistanceBased, ws);
    const Clustering mapped = to_original_ids(
        khop_clustering(g2, k, carried, AffiliationRule::kDistanceBased, ws),
        r);
    EXPECT_EQ(mapped.heads, direct.heads);
    EXPECT_EQ(mapped.election_rounds, direct.election_rounds);
    EXPECT_EQ(mapped.dist_to_head, direct.dist_to_head);
  }
}

TEST(Relabel, RelabeledRunsMatchReferenceAllPipelines) {
  // The acceptance contract: on the relabeled graph the optimized kernels
  // remain bit-exact against the preserved reference implementations, for
  // every affiliation rule and every backbone pipeline, serial and parallel
  // at thread counts {1, 2, hardware}.
  Workspace ws;
  ThreadPool pool_one(1), pool_two(2), pool_hw(0);
  const AdHocNetwork net = random_network(110, 6.0, 61);
  const Relabeling r = sfc_relabeling(net.positions);
  const Graph g2 = relabel(net.graph, r);
  const auto prios =
      relabel(make_priorities(net.graph, PriorityRule::kLowestId), r);

  for (const AffiliationRule rule :
       {AffiliationRule::kIdBased, AffiliationRule::kDistanceBased,
        AffiliationRule::kSizeBased}) {
    const Clustering got = khop_clustering(g2, 2, prios, rule, ws);
    const Clustering want = reference::khop_clustering(g2, 2, prios, rule);
    EXPECT_EQ(got.heads, want.heads);
    EXPECT_EQ(got.head_of, want.head_of);
    EXPECT_EQ(got.dist_to_head, want.dist_to_head);
    EXPECT_EQ(got.election_rounds, want.election_rounds);
  }

  const Clustering c2 = khop_clustering(
      g2, 2, prios, AffiliationRule::kDistanceBased, ws);
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
  }
}

TEST(Relabel, InverseMappedBackboneValidatesOnOriginalGraph) {
  // permute -> run -> inverse-map: the result is a valid k-hop CDS of the
  // *original* graph for all five pipelines, and its head set matches the
  // direct run's (carried priorities make the election equivariant).
  Workspace ws;
  const AdHocNetwork net = random_network(140, 7.0, 67);
  const Relabeling r = sfc_relabeling(net.positions);
  const Graph g2 = relabel(net.graph, r);
  std::vector<PriorityKey> prios(net.graph.num_nodes());
  for (NodeId u = 0; u < net.graph.num_nodes(); ++u) {
    prios[u] = {static_cast<double>(u), u};
  }

  const Clustering direct = khop_clustering(
      net.graph, 2, prios, AffiliationRule::kDistanceBased, ws);
  const Clustering c2 = khop_clustering(
      g2, 2, relabel(prios, r), AffiliationRule::kDistanceBased, ws);
  const Clustering c_mapped = to_original_ids(c2, r);
  EXPECT_EQ(c_mapped.heads, direct.heads);

  for (const Pipeline p : kAllPipelines) {
    const Backbone b_mapped = to_original_ids(build_backbone(g2, c2, p, ws), r);
    EXPECT_EQ(b_mapped.heads, c_mapped.heads);
    const std::string err = validate_k_cds(net.graph, c_mapped, b_mapped);
    EXPECT_TRUE(err.empty()) << "pipeline " << static_cast<int>(p) << ": "
                             << err;
  }
}

}  // namespace
}  // namespace khop
