// Parameterized property tests: the paper's invariants checked across a
// sweep of (N, D, k, pipeline, seed) configurations.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "khop/cds/broadcast.hpp"
#include "khop/cds/cds.hpp"
#include "khop/cluster/validate.hpp"
#include "khop/gateway/validate.hpp"
#include "khop/graph/bfs.hpp"
#include "khop/nbr/cluster_graph.hpp"
#include "khop/net/generator.hpp"
#include "oracles/bfs_reference.hpp"

namespace khop {
namespace {

// ---------------------------------------------------------------------------
// Invariants of the full pipeline across the paper's parameter space.
// ---------------------------------------------------------------------------

using FullParam = std::tuple<std::size_t /*n*/, double /*degree*/,
                             Hops /*k*/, Pipeline, std::uint64_t /*seed*/>;

class FullPipelineProperty : public ::testing::TestWithParam<FullParam> {};

TEST_P(FullPipelineProperty, AllPaperInvariantsHold) {
  const auto [n, degree, k, pipeline, seed] = GetParam();
  GeneratorConfig cfg;
  cfg.num_nodes = n;
  cfg.target_degree = degree;
  Rng rng(seed);
  const AdHocNetwork net = generate_network(cfg, rng);

  const Clustering c = khop_clustering(net.graph, k);

  // Phase-1 invariants: k-hop IS + k-hop DS + total non-overlap.
  EXPECT_EQ(validate_clustering(net.graph, c), "");

  // Theorem 1: the adjacent cluster graph is connected.
  EXPECT_TRUE(theorem1_holds(net.graph, c));

  // Phase-2 invariants (Theorem 2): connected CDS, k-dominating.
  const Backbone b = build_backbone(net.graph, c, pipeline);
  EXPECT_EQ(validate_k_cds(net.graph, c, b), "");

  // Every virtual link respects the A-NCR distance bound.
  const auto d = all_pairs_hops(net.graph);
  for (const auto& [u, v] : b.virtual_links) {
    EXPECT_LE(d[u][v], 2 * k + 1);
  }

  // The broadcast application delivers everywhere over this backbone.
  const BroadcastResult flood = cds_flood(net.graph, c, b, 0);
  EXPECT_TRUE(flood.complete);
}

std::string full_param_name(
    const ::testing::TestParamInfo<FullParam>& info) {
  const auto [n, degree, k, pipeline, seed] = info.param;
  std::string name = "N" + std::to_string(n) + "_D" +
                     std::to_string(static_cast<int>(degree)) + "_k" +
                     std::to_string(k) + "_" +
                     std::string(pipeline_name(pipeline)) + "_s" +
                     std::to_string(seed);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    PaperParameterSpace, FullPipelineProperty,
    ::testing::Combine(::testing::Values(50, 125, 200),
                       ::testing::Values(6.0, 10.0),
                       ::testing::Values(1u, 2u, 3u, 4u),
                       ::testing::Values(Pipeline::kNcMesh, Pipeline::kAcLmst,
                                         Pipeline::kGmst),
                       ::testing::Values(7u)),
    full_param_name);

// ---------------------------------------------------------------------------
// Affiliation-rule invariants: any rule yields a valid non-overlapping
// clustering with identical head sets (the rule only reassigns members).
// ---------------------------------------------------------------------------

using AffParam = std::tuple<AffiliationRule, Hops, std::uint64_t>;

class AffiliationProperty : public ::testing::TestWithParam<AffParam> {};

TEST_P(AffiliationProperty, RuleOnlyAffectsMembership) {
  const auto [rule, k, seed] = GetParam();
  GeneratorConfig cfg;
  cfg.num_nodes = 100;
  Rng rng(seed);
  const AdHocNetwork net = generate_network(cfg, rng);

  const Clustering by_rule = khop_clustering(net.graph, k, rule);
  const Clustering by_id =
      khop_clustering(net.graph, k, AffiliationRule::kIdBased);

  EXPECT_EQ(by_rule.heads, by_id.heads);  // election is rule-independent
  EXPECT_EQ(validate_clustering(net.graph, by_rule), "");
}

std::string aff_param_name(const ::testing::TestParamInfo<AffParam>& pinfo) {
  const auto [rule, k, seed] = pinfo.param;
  const char* rn = rule == AffiliationRule::kIdBased         ? "Id"
                   : rule == AffiliationRule::kDistanceBased ? "Dist"
                                                             : "Size";
  return std::string(rn) + "_k" + std::to_string(k) + "_s" +
         std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(
    Rules, AffiliationProperty,
    ::testing::Combine(::testing::Values(AffiliationRule::kIdBased,
                                         AffiliationRule::kDistanceBased,
                                         AffiliationRule::kSizeBased),
                       ::testing::Values(1u, 2u, 3u),
                       ::testing::Values(11u, 12u)),
    aff_param_name);

// ---------------------------------------------------------------------------
// Distance-based affiliation puts every member with a nearest head.
// ---------------------------------------------------------------------------

class DistanceAffiliationProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DistanceAffiliationProperty, MembersJoinNearestDeclaringHead) {
  GeneratorConfig cfg;
  cfg.num_nodes = 90;
  Rng rng(GetParam());
  const AdHocNetwork net = generate_network(cfg, rng);
  const Hops k = 2;
  const Clustering c =
      khop_clustering(net.graph, k, AffiliationRule::kDistanceBased);

  // A member may not sit farther from its head than from some other head
  // that declared in the same round... same-round information is internal,
  // but a weaker universal property holds: dist(v, head(v)) <= k and the
  // recorded distance equals the true BFS distance.
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    const BfsTree t = bfs(net.graph, c.head_of[v]);
    EXPECT_EQ(t.dist[v], c.dist_to_head[v]);
    EXPECT_LE(c.dist_to_head[v], k);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistanceAffiliationProperty,
                         ::testing::Values(21u, 22u, 23u, 24u));

// ---------------------------------------------------------------------------
// Subset relation: AC link set ⊆ NC link set; LMST kept ⊆ selection.
// ---------------------------------------------------------------------------

using SubsetParam = std::tuple<Hops, std::uint64_t>;

class SelectionSubsetProperty : public ::testing::TestWithParam<SubsetParam> {
};

TEST_P(SelectionSubsetProperty, KeptLinksSubsetOfSelection) {
  const auto [k, seed] = GetParam();
  GeneratorConfig cfg;
  cfg.num_nodes = 130;
  Rng rng(seed);
  const AdHocNetwork net = generate_network(cfg, rng);
  const Clustering c = khop_clustering(net.graph, k);

  for (const Pipeline p : {Pipeline::kNcLmst, Pipeline::kAcLmst}) {
    const Backbone b = build_backbone(net.graph, c, p);
    const NeighborRule rule = p == Pipeline::kAcLmst
                                  ? NeighborRule::kAdjacent
                                  : NeighborRule::kAllWithin2k1;
    const auto sel = select_neighbors(net.graph, c, rule);
    for (const auto& link : b.virtual_links) {
      EXPECT_TRUE(std::binary_search(sel.head_pairs.begin(),
                                     sel.head_pairs.end(), link))
          << pipeline_name(p);
    }
  }
}

std::string subset_param_name(
    const ::testing::TestParamInfo<SubsetParam>& pinfo) {
  return "k" + std::to_string(std::get<0>(pinfo.param)) + "_s" +
         std::to_string(std::get<1>(pinfo.param));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SelectionSubsetProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(31u, 32u)),
    subset_param_name);

}  // namespace
}  // namespace khop
