// LmstKernel / lmst_gateways checked against an independent oracle: the
// set-based LMSTGA implementation that preceded the flat kernel, kept
// verbatim in tests/oracles/lmst_oracle.hpp (test-only, outside libkhop).
// The gateway oracle (gateway_reference) forwards to the shared
// lmst_gateways, so only this oracle can catch a kernel bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "khop/cluster/clustering.hpp"
#include "khop/common/rng.hpp"
#include "khop/gateway/lmst.hpp"
#include "khop/gateway/virtual_link.hpp"
#include "khop/nbr/neighbor_rules.hpp"
#include "khop/net/generator.hpp"
#include "oracles/lmst_oracle.hpp"

namespace khop {
namespace {

using oracle::legacy_lmst_gateways;

void expect_same(const LmstResult& got, const LmstResult& want,
                 const std::string& what) {
  EXPECT_EQ(got.kept_links, want.kept_links) << what;
  EXPECT_EQ(got.gateways, want.gateways) << what;
  EXPECT_EQ(got.asymmetric_links, want.asymmetric_links) << what;
}

constexpr LmstKeepRule kKeepRules[] = {LmstKeepRule::kEitherEndpoint,
                                       LmstKeepRule::kBothEndpoints};

Graph make_network(std::uint64_t seed, std::size_t n, double degree) {
  GeneratorConfig cfg;
  cfg.num_nodes = n;
  cfg.target_degree = degree;
  Rng rng(seed);
  return generate_network(cfg, rng).graph;
}

TEST(LmstOracle, GeneratedNetworksAllRulesAndK) {
  std::size_t asymmetric = 0;
  for (std::uint64_t seed : {9101u, 9102u, 9103u}) {
    const Graph g = make_network(seed, 160, seed % 2 == 0 ? 6.0 : 10.0);
    for (Hops k = 1; k <= 4; ++k) {
      const Clustering c = khop_clustering(g, k);
      std::vector<NeighborRule> rules = {NeighborRule::kAdjacent,
                                         NeighborRule::kAllWithin2k1};
      if (k == 1) rules.push_back(NeighborRule::kWuLou25);
      for (NeighborRule rule : rules) {
        const NeighborSelection sel = select_neighbors(g, c, rule);
        const VirtualLinkMap links = VirtualLinkMap::build(g, sel.head_pairs);
        for (LmstKeepRule keep : kKeepRules) {
          const LmstResult want = legacy_lmst_gateways(c, sel, links, keep);
          asymmetric += want.asymmetric_links;
          expect_same(lmst_gateways(c, sel, links, keep), want,
                      "seed " + std::to_string(seed) + " k " +
                          std::to_string(k) + " rule " +
                          std::to_string(static_cast<int>(rule)) + " keep " +
                          std::to_string(static_cast<int>(keep)));
        }
      }
    }
  }
  // The keep rules must actually differ somewhere, or the sweep above would
  // not distinguish them.
  EXPECT_GT(asymmetric, 0u);
}

TEST(LmstOracle, NonCanonicalHeadPairsAndSelections) {
  const Graph g = make_network(9201, 140, 8.0);
  for (Hops k = 1; k <= 3; ++k) {
    const Clustering c = khop_clustering(g, k);
    NeighborSelection sel = select_neighbors(g, c, NeighborRule::kAllWithin2k1);
    const VirtualLinkMap links = VirtualLinkMap::build(g, sel.head_pairs);
    ASSERT_GT(sel.head_pairs.size(), 3u);

    // Reversed and duplicated head_pairs; reversed per-head selections.
    Rng rng(k);
    std::reverse(sel.head_pairs.begin(), sel.head_pairs.end());
    for (std::size_t i = 0; i < sel.head_pairs.size(); i += 3) {
      sel.head_pairs.push_back(sel.head_pairs[rng.uniform_int(
          sel.head_pairs.size())]);
    }
    for (auto& list : sel.selected) std::reverse(list.begin(), list.end());

    for (LmstKeepRule keep : kKeepRules) {
      expect_same(lmst_gateways(c, sel, links, keep),
                  legacy_lmst_gateways(c, sel, links, keep),
                  "k " + std::to_string(k));
    }
  }
}

TEST(LmstOracle, HandBuiltTiedSelectionWithDuplicatePairs) {
  // Five heads on a 2-hop ring plus chords: every local graph has equal
  // weights, so the id tie-break decides. Pair (1, 3) is listed twice, the
  // pairs and lists are out of order, and head 4 selects nobody.
  const Graph g = Graph::from_edges(
      10, std::vector<std::pair<NodeId, NodeId>>{
              {0, 5}, {5, 1}, {1, 6}, {6, 2}, {2, 7}, {7, 3}, {3, 8}, {8, 0},
              {1, 9}, {9, 3}, {4, 0}});
  Clustering c;
  c.k = 1;
  c.heads = {0, 1, 2, 3, 4};
  c.head_of = {0, 1, 2, 3, 4, 0, 1, 2, 3, 1};
  c.dist_to_head = {0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
  NeighborSelection sel;
  sel.selected = {{1, 3}, {3, 2, 0}, {1, 3}, {0, 2, 1}, {}};
  sel.head_pairs = {{1, 3}, {0, 1}, {2, 3}, {1, 3}, {0, 3}, {1, 2}};
  const VirtualLinkMap links = VirtualLinkMap::build(g, sel.head_pairs);
  for (LmstKeepRule keep : kKeepRules) {
    const LmstResult want = legacy_lmst_gateways(c, sel, links, keep);
    expect_same(lmst_gateways(c, sel, links, keep), want, "hand-built");
    EXPECT_FALSE(want.kept_links.empty());
  }
}

}  // namespace
}  // namespace khop
