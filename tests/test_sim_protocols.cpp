// Cross-validation of the distributed protocols against the centralized
// reference algorithms: identical clusterheads, memberships, A-NCR
// selections and AC-LMST gateways on the same topologies.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "khop/common/error.hpp"
#include "khop/gateway/lmst.hpp"
#include "khop/graph/bfs.hpp"
#include "khop/net/generator.hpp"
#include "khop/sim/protocols/ancr_protocol.hpp"
#include "khop/sim/protocols/clustering_protocol.hpp"
#include "khop/sim/protocols/gateway_protocol.hpp"
#include "khop/sim/protocols/neighborhood.hpp"

namespace khop {
namespace {

AdHocNetwork make_net(std::uint64_t seed, std::size_t n = 90,
                      double degree = 6.0) {
  GeneratorConfig cfg;
  cfg.num_nodes = n;
  cfg.target_degree = degree;
  Rng rng(seed);
  return generate_network(cfg, rng);
}

TEST(NeighborhoodDiscovery, MatchesBfsBalls) {
  const AdHocNetwork net = make_net(2001, 70);
  for (const Hops k : {1u, 2u, 3u}) {
    SyncEngine engine(net.graph, [&](NodeId) {
      return std::make_unique<NeighborhoodDiscoveryAgent>(k);
    });
    ASSERT_TRUE(engine.run(4 * k + 8));

    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      const auto& agent =
          dynamic_cast<const NeighborhoodDiscoveryAgent&>(engine.agent(v));
      const BfsTree tree = bfs_bounded(net.graph, v, k);
      std::size_t reachable = 0;
      for (NodeId o = 0; o < net.num_nodes(); ++o) {
        if (o == v || tree.dist[o] == kUnreachable) continue;
        ++reachable;
        const auto* rec = agent.known().find(o);
        ASSERT_NE(rec, nullptr) << "node " << v << " origin " << o;
        EXPECT_EQ(rec->dist, tree.dist[o]);
      }
      EXPECT_EQ(agent.known().size(), reachable) << "node " << v;
    }
  }
}

TEST(NeighborhoodDiscovery, ParentsAreCanonical) {
  const AdHocNetwork net = make_net(2002, 60);
  const Hops k = 2;
  SyncEngine engine(net.graph, [&](NodeId) {
    return std::make_unique<NeighborhoodDiscoveryAgent>(k);
  });
  ASSERT_TRUE(engine.run(4 * k + 8));
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    const auto& agent =
        dynamic_cast<const NeighborhoodDiscoveryAgent&>(engine.agent(v));
    for (const auto& [origin, rec] : agent.known().sorted_items()) {
      // Parent pointers must match the centralized canonical BFS tree of
      // that origin (parents point one hop toward the origin).
      const BfsTree tree = bfs(net.graph, origin);
      EXPECT_EQ(rec.parent, tree.parent[v])
          << "node " << v << " origin " << origin;
    }
  }
}

TEST(DistributedClustering, MatchesCentralizedIdRule) {
  for (const std::uint64_t seed : {2003ull, 2004ull, 2005ull}) {
    const AdHocNetwork net = make_net(seed);
    for (const Hops k : {1u, 2u, 3u}) {
      const auto prio = make_priorities(net.graph, PriorityRule::kLowestId);
      const Clustering central =
          khop_clustering(net.graph, k, prio, AffiliationRule::kIdBased);
      const Clustering dist = run_distributed_clustering(
          net.graph, k, prio, AffiliationRule::kIdBased);
      EXPECT_EQ(dist.heads, central.heads) << "seed " << seed << " k=" << k;
      EXPECT_EQ(dist.head_of, central.head_of);
      EXPECT_EQ(dist.dist_to_head, central.dist_to_head);
    }
  }
}

TEST(DistributedClustering, MatchesCentralizedDistanceRule) {
  const AdHocNetwork net = make_net(2006, 100);
  for (const Hops k : {2u, 3u}) {
    const auto prio = make_priorities(net.graph, PriorityRule::kLowestId);
    const Clustering central =
        khop_clustering(net.graph, k, prio, AffiliationRule::kDistanceBased);
    const Clustering dist = run_distributed_clustering(
        net.graph, k, prio, AffiliationRule::kDistanceBased);
    EXPECT_EQ(dist.heads, central.heads);
    EXPECT_EQ(dist.head_of, central.head_of);
    EXPECT_EQ(dist.dist_to_head, central.dist_to_head);
    EXPECT_EQ(dist.cluster_of, central.cluster_of);
  }
}

TEST(DistributedClustering, MatchesCentralizedDegreePriority) {
  const AdHocNetwork net = make_net(2007, 80);
  const auto prio = make_priorities(net.graph, PriorityRule::kHighestDegree);
  const Clustering central =
      khop_clustering(net.graph, 2, prio, AffiliationRule::kIdBased);
  const Clustering dist = run_distributed_clustering(
      net.graph, 2, prio, AffiliationRule::kIdBased);
  EXPECT_EQ(dist.heads, central.heads);
  EXPECT_EQ(dist.head_of, central.head_of);
}

TEST(DistributedClustering, RejectsSizeBasedRule) {
  const AdHocNetwork net = make_net(2008, 40);
  const auto prio = make_priorities(net.graph, PriorityRule::kLowestId);
  EXPECT_THROW(run_distributed_clustering(net.graph, 1, prio,
                                          AffiliationRule::kSizeBased),
               InvalidArgument);
}

TEST(DistributedClustering, HeadsCollectTheirMembers) {
  const AdHocNetwork net = make_net(2009, 60);
  const Hops k = 2;
  const auto prio = make_priorities(net.graph, PriorityRule::kLowestId);

  SyncEngine engine(net.graph, [&](NodeId v) {
    return std::make_unique<DistributedClusteringAgent>(
        k, prio[v], AffiliationRule::kIdBased);
  });
  ASSERT_TRUE(engine.run(3 * k * (net.num_nodes() + 2) + 16));

  const Clustering central = khop_clustering(net.graph, k, prio);
  for (NodeId h : central.heads) {
    const auto& agent =
        dynamic_cast<const DistributedClusteringAgent&>(engine.agent(h));
    auto got = agent.joined_members();
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, central.cluster_members(central.cluster_of[h]))
        << "head " << h;
  }
}

TEST(DistributedAncr, MatchesCentralizedSelection) {
  for (const std::uint64_t seed : {2010ull, 2011ull}) {
    const AdHocNetwork net = make_net(seed, 100);
    for (const Hops k : {1u, 2u, 3u}) {
      const Clustering c = khop_clustering(net.graph, k);
      const NeighborSelection central =
          select_neighbors(net.graph, c, NeighborRule::kAdjacent);
      const NeighborSelection dist = run_distributed_ancr(net.graph, c);
      EXPECT_EQ(dist.head_pairs, central.head_pairs)
          << "seed " << seed << " k=" << k;
      EXPECT_EQ(dist.selected, central.selected);
    }
  }
}

TEST(DistributedNc, MatchesCentralizedSelection) {
  const AdHocNetwork net = make_net(2016, 100);
  for (const Hops k : {1u, 2u, 3u}) {
    const Clustering c = khop_clustering(net.graph, k);
    const NeighborSelection central =
        select_neighbors(net.graph, c, NeighborRule::kAllWithin2k1);
    const NeighborSelection dist = run_distributed_nc(net.graph, c);
    EXPECT_EQ(dist.head_pairs, central.head_pairs) << "k=" << k;
    EXPECT_EQ(dist.selected, central.selected) << "k=" << k;
  }
}

TEST(DistributedAcLmst, MatchesCentralizedGateways) {
  for (const std::uint64_t seed : {2012ull, 2013ull, 2014ull}) {
    const AdHocNetwork net = make_net(seed, 100);
    for (const Hops k : {1u, 2u, 3u}) {
      const Clustering c = khop_clustering(net.graph, k);
      const Backbone central = build_backbone(net.graph, c, Pipeline::kAcLmst);
      const Backbone dist = run_distributed_aclmst(net.graph, c);
      EXPECT_EQ(dist.gateways, central.gateways)
          << "seed " << seed << " k=" << k;
      EXPECT_EQ(dist.virtual_links, central.virtual_links)
          << "seed " << seed << " k=" << k;
    }
  }
}

TEST(DistributedProtocols, OverheadGrowsWithK) {
  const AdHocNetwork net = make_net(2015, 100);
  const auto prio = make_priorities(net.graph, PriorityRule::kLowestId);
  std::size_t prev_tx = 0;
  for (const Hops k : {1u, 2u, 3u, 4u}) {
    SimStats stats;
    run_distributed_clustering(net.graph, k, prio,
                               AffiliationRule::kIdBased, &stats);
    if (k > 1) {
      EXPECT_GT(stats.transmissions, 0u);
    }
    // The k-hop flood volume is monotone in k in expectation; allow equality.
    EXPECT_GE(stats.transmissions + 50, prev_tx) << "k=" << k;
    prev_tx = stats.transmissions;
  }
}

// The exact message accounting of both distributed runners on one fixed
// network. Message counts are the overhead metric clustering surveys compare,
// so a change to how the agents store their state must leave them unchanged.
TEST(DistributedProtocols, GoldenMessageCounts) {
  struct Golden {
    Hops k;
    SimStats cluster, gateway;  // {rounds, transmissions, receptions, words}
  };
  const Golden golden[] = {
      {1, {6, 322, 1432, 1022}, {12, 1391, 8244, 5851}},
      {2, {16, 1575, 10599, 5790}, {20, 1627, 10087, 6249}},
      {3, {25, 3054, 20915, 11523}, {27, 1569, 9727, 5629}},
  };
  const AdHocNetwork net = make_net(2016, 150);
  const auto prio = make_priorities(net.graph, PriorityRule::kLowestId);
  const auto expect_stats = [](const SimStats& got, const SimStats& want,
                               const char* what, Hops k) {
    EXPECT_EQ(got.rounds, want.rounds) << what << " k=" << k;
    EXPECT_EQ(got.transmissions, want.transmissions) << what << " k=" << k;
    EXPECT_EQ(got.receptions, want.receptions) << what << " k=" << k;
    EXPECT_EQ(got.payload_words, want.payload_words) << what << " k=" << k;
  };
  for (const Golden& g : golden) {
    SimStats cluster_stats, gateway_stats;
    const Clustering c = run_distributed_clustering(
        net.graph, g.k, prio, AffiliationRule::kIdBased, &cluster_stats);
    run_distributed_aclmst(net.graph, c, &gateway_stats);
    expect_stats(cluster_stats, g.cluster, "clustering", g.k);
    expect_stats(gateway_stats, g.gateway, "AC-LMST", g.k);
  }
}

}  // namespace
}  // namespace khop
