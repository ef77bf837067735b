// Unit tests for the paper's iterative k-hop clustering (phase 1), with
// hand-computed expectations on small topologies.
#include <gtest/gtest.h>

#include <exception>
#include <limits>
#include <utility>
#include <vector>

#include "khop/cluster/clustering.hpp"
#include "khop/cluster/validate.hpp"
#include "khop/common/error.hpp"
#include "khop/net/generator.hpp"

namespace khop {
namespace {

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

Graph path_graph(std::size_t n) {
  EdgeList edges;
  for (NodeId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return Graph::from_edges(n, edges);
}

TEST(Clustering, PathGraphK2HandComputed) {
  // Path 0..9, k=2, lowest id. Election proceeds left to right:
  // heads {0,3,6,9}, members join the head that claimed them.
  const Graph g = path_graph(10);
  const Clustering c = khop_clustering(g, 2);
  EXPECT_EQ(c.heads, (std::vector<NodeId>{0, 3, 6, 9}));
  EXPECT_EQ(c.head_of,
            (std::vector<NodeId>{0, 0, 0, 3, 3, 3, 6, 6, 6, 9}));
  EXPECT_EQ(c.dist_to_head,
            (std::vector<Hops>{0, 1, 2, 0, 1, 2, 0, 1, 2, 0}));
  EXPECT_EQ(c.election_rounds, 4u);
  EXPECT_TRUE(validate_clustering(g, c).empty());
}

TEST(Clustering, PathGraphK1HandComputed) {
  // Path 0..5, k=1: heads {0,2,4}.
  const Graph g = path_graph(6);
  const Clustering c = khop_clustering(g, 1);
  EXPECT_EQ(c.heads, (std::vector<NodeId>{0, 2, 4}));
  EXPECT_EQ(c.head_of, (std::vector<NodeId>{0, 0, 2, 2, 4, 4}));
}

TEST(Clustering, SingleClusterWhenKCoversGraph) {
  const Graph g = path_graph(5);
  const Clustering c = khop_clustering(g, 4);
  EXPECT_EQ(c.heads, (std::vector<NodeId>{0}));
  EXPECT_EQ(c.election_rounds, 1u);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(c.head_of[v], 0u);
}

TEST(Clustering, AffiliationIdVsDistance) {
  // Path 0-2-3-1, k=2: heads {0,1} elected in the same round. Node 3 sits
  // 2 hops from head 0 and 1 hop from head 1.
  const Graph g = Graph::from_edges(4, EdgeList{{0, 2}, {2, 3}, {3, 1}});

  const Clustering by_id = khop_clustering(g, 2, AffiliationRule::kIdBased);
  EXPECT_EQ(by_id.heads, (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(by_id.head_of[3], 0u);  // smaller head id wins

  const Clustering by_dist =
      khop_clustering(g, 2, AffiliationRule::kDistanceBased);
  EXPECT_EQ(by_dist.head_of[3], 1u);  // nearer head wins
  EXPECT_EQ(by_dist.dist_to_head[3], 1u);
  EXPECT_EQ(by_dist.head_of[2], 0u);  // node 2 is nearer to 0 either way
}

TEST(Clustering, AffiliationSizeBalances) {
  // Same topology: size-based assignment splits members 2/3 across the two
  // heads instead of piling both on head 0.
  const Graph g = Graph::from_edges(4, EdgeList{{0, 2}, {2, 3}, {3, 1}});
  const Clustering c = khop_clustering(g, 2, AffiliationRule::kSizeBased);
  EXPECT_EQ(c.head_of[2], 0u);
  EXPECT_EQ(c.head_of[3], 1u);
}

TEST(Clustering, HeadsFormKHopIndependentSet) {
  Rng rng(202);
  GeneratorConfig cfg;
  cfg.num_nodes = 120;
  cfg.target_degree = 6.0;
  const AdHocNetwork net = generate_network(cfg, rng);
  for (Hops k = 1; k <= 4; ++k) {
    const Clustering c = khop_clustering(net.graph, k);
    const std::string err = validate_clustering(net.graph, c);
    EXPECT_TRUE(err.empty()) << "k=" << k << ": " << err;
  }
}

TEST(Clustering, LargerKFewerHeads) {
  Rng rng(203);
  GeneratorConfig cfg;
  cfg.num_nodes = 150;
  const AdHocNetwork net = generate_network(cfg, rng);
  std::size_t prev = net.num_nodes() + 1;
  for (Hops k = 1; k <= 4; ++k) {
    const Clustering c = khop_clustering(net.graph, k);
    EXPECT_LE(c.heads.size(), prev) << "k=" << k;
    prev = c.heads.size();
  }
}

TEST(Clustering, HighestDegreePriorityElectsHubs) {
  // Star with center 5 (ids chosen so lowest-ID would pick a leaf).
  EdgeList edges;
  for (NodeId leaf : {0u, 1u, 2u, 3u, 4u}) edges.emplace_back(5, leaf);
  const Graph g = Graph::from_edges(6, edges);
  const auto prio = make_priorities(g, PriorityRule::kHighestDegree);
  const Clustering c = khop_clustering(g, 1, prio);
  EXPECT_EQ(c.heads, (std::vector<NodeId>{5}));
}

TEST(Clustering, EnergyPriorityPicksFreshestNode) {
  const Graph g = path_graph(3);
  EnergyConfig ecfg;
  ecfg.initial = 10.0;
  ecfg.clusterhead_cost = 6.0;
  EnergyState energy(ecfg, 3);
  // Drain node 0 and 1; node 2 has the most residual energy.
  energy.apply_epoch(
      {NodeRole::kClusterhead, NodeRole::kGateway, NodeRole::kMember});
  const auto prio =
      make_priorities(g, PriorityRule::kHighestEnergy, &energy);
  const Clustering c = khop_clustering(g, 2, prio);
  EXPECT_EQ(c.heads, (std::vector<NodeId>{2}));
}

TEST(Clustering, RandomTimerPriorityIsValid) {
  Rng rng(5);
  GeneratorConfig cfg;
  cfg.num_nodes = 60;
  const AdHocNetwork net = generate_network(cfg, rng);
  Rng prio_rng(17);
  const auto prio =
      make_priorities(net.graph, PriorityRule::kRandomTimer, nullptr,
                      &prio_rng);
  const Clustering c = khop_clustering(net.graph, 2, prio);
  EXPECT_TRUE(validate_clustering(net.graph, c).empty());
}

TEST(Clustering, PriorityFactoriesEnforcePreconditions) {
  const Graph g = path_graph(3);
  EXPECT_THROW(make_priorities(g, PriorityRule::kHighestEnergy),
               InvalidArgument);
  EXPECT_THROW(make_priorities(g, PriorityRule::kRandomTimer),
               InvalidArgument);
}

TEST(Clustering, RejectsBadArguments) {
  const Graph g = path_graph(4);
  EXPECT_THROW(khop_clustering(g, 0), InvalidArgument);
  EXPECT_THROW(khop_clustering(Graph(3), 1), NotConnected);
  const std::vector<PriorityKey> short_prio(2);
  EXPECT_THROW(khop_clustering(g, 1, short_prio), InvalidArgument);
}

TEST(Clustering, ClusterMembersRoundTrip) {
  const Graph g = path_graph(10);
  const Clustering c = khop_clustering(g, 2);
  std::size_t total = 0;
  for (std::uint32_t i = 0; i < c.num_clusters(); ++i) {
    const auto members = c.cluster_members(i);
    total += members.size();
    for (NodeId m : members) EXPECT_EQ(c.cluster_of[m], i);
  }
  EXPECT_EQ(total, g.num_nodes());  // non-overlapping and exhaustive
}

TEST(Clustering, DeterministicAcrossCalls) {
  Rng rng(404);
  GeneratorConfig cfg;
  cfg.num_nodes = 90;
  const AdHocNetwork net = generate_network(cfg, rng);
  const Clustering a = khop_clustering(net.graph, 3);
  const Clustering b = khop_clustering(net.graph, 3);
  EXPECT_EQ(a.heads, b.heads);
  EXPECT_EQ(a.head_of, b.head_of);
}

// The connected-input precondition is decided after the election, from the
// cluster graph. A disconnected input must still throw NotConnected with the
// message of the check that used to run first, under every rule, and never
// the InvariantViolation the election itself would raise on tied keys.

constexpr AffiliationRule kAllRules[] = {AffiliationRule::kIdBased,
                                         AffiliationRule::kDistanceBased,
                                         AffiliationRule::kSizeBased};
constexpr const char* kNotConnectedMessage =
    "khop_clustering: input graph must be connected";

void expect_not_connected(const Graph& g, Hops k,
                          const std::vector<PriorityKey>& prios) {
  for (const AffiliationRule rule : kAllRules) {
    try {
      (void)khop_clustering(g, k, prios, rule);
      ADD_FAILURE() << "no throw: rule " << static_cast<int>(rule)
                    << " k=" << k;
    } catch (const NotConnected& e) {
      EXPECT_STREQ(e.what(), kNotConnectedMessage);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "rule " << static_cast<int>(rule) << " k=" << k
                    << " threw something else: " << e.what();
    }
  }
}

TEST(Clustering, DisconnectedInputThrowsNotConnectedTwoComponents) {
  // Paths 0-1-2-3 and 4-5-6: each component elects on its own, the cluster
  // graph stays split at every k.
  const Graph g = Graph::from_edges(
      7, EdgeList{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}});
  for (Hops k = 1; k <= 4; ++k) {
    expect_not_connected(g, k, make_priorities(g, PriorityRule::kLowestId));
  }
}

TEST(Clustering, DisconnectedInputThrowsNotConnectedIsolatedNode) {
  // Node 3 of a 6-node graph has no edge; it heads a cluster of its own.
  const Graph g = Graph::from_edges(
      6, EdgeList{{0, 1}, {1, 2}, {2, 4}, {4, 5}});
  for (Hops k = 1; k <= 4; ++k) {
    expect_not_connected(g, k, make_priorities(g, PriorityRule::kLowestId));
  }
}

TEST(Clustering, DisconnectedInputThrowsNotConnectedTwoNodesNoEdge) {
  const Graph g(2);
  for (Hops k = 1; k <= 3; ++k) {
    expect_not_connected(g, k, make_priorities(g, PriorityRule::kLowestId));
  }
}

TEST(Clustering, DisconnectedInputThrowsNotConnectedWithTiedKeys) {
  // Component {0..4} is a path whose nodes 0 and 2 share the best key, 2
  // hops apart: at k = 2 both win round 1, which the election rejects with
  // InvariantViolation on a connected graph. With a second component
  // {5, 6} the input is disconnected, and that must be what is reported.
  const std::vector<PriorityKey> prios = {{0.0, 0}, {5.0, 0}, {0.0, 0},
                                          {6.0, 0}, {7.0, 0}, {8.0, 0},
                                          {9.0, 0}};
  const Graph split = Graph::from_edges(
      7, EdgeList{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {5, 6}});
  expect_not_connected(split, 2, prios);

  // A NaN key on a disconnected input is reported as NotConnected too.
  std::vector<PriorityKey> nan_prios = prios;
  nan_prios[6].key = std::numeric_limits<double>::quiet_NaN();
  expect_not_connected(split, 2, nan_prios);

  // Joined into one component, the same keys are the election's error.
  const Graph joined = Graph::from_edges(
      7, EdgeList{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}});
  for (const AffiliationRule rule : kAllRules) {
    EXPECT_THROW((void)khop_clustering(joined, 2, prios, rule),
                 InvariantViolation);
    EXPECT_THROW((void)khop_clustering(joined, 2, nan_prios, rule),
                 InvalidArgument);
  }
}

}  // namespace
}  // namespace khop
