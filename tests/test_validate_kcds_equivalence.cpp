// validate_k_cds and validate_backbone checked against the validators they
// replaced (tests/oracles/cds_reference.hpp): a full owner-tracking
// multi-source BFS for k-domination, an n-sized mask for CDS connectivity,
// one binary search per gateway for disjointness. The bounded checks must
// return byte-identical strings on valid backbones of every pipeline, on
// corrupted ones, and at the k / k + 1 domination boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "khop/cds/cds.hpp"
#include "khop/common/rng.hpp"
#include "khop/gateway/validate.hpp"
#include "khop/net/generator.hpp"
#include "oracles/cds_reference.hpp"

namespace khop {
namespace {

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

/// Both validators against their oracles; returns validate_k_cds's string.
std::string expect_same_verdict(const Graph& g, const Clustering& c,
                                const Backbone& b, const std::string& what) {
  const std::string got = validate_k_cds(g, c, b);
  EXPECT_EQ(got, reference::validate_k_cds(g, c, b)) << what;
  EXPECT_EQ(validate_backbone(g, b), reference::validate_backbone(g, b))
      << what;
  return got;
}

std::vector<AdHocNetwork> random_networks() {
  std::vector<AdHocNetwork> nets;
  Rng rng(2110);
  for (const std::size_t n : {40u, 90u, 160u}) {
    for (const double degree : {6.0, 10.0}) {
      GeneratorConfig cfg;
      cfg.num_nodes = n;
      cfg.target_degree = degree;
      nets.push_back(generate_network(cfg, rng));
    }
  }
  return nets;
}

template <typename T>
void insert_sorted(std::vector<T>& v, T x) {
  v.insert(std::upper_bound(v.begin(), v.end(), x), x);
}

TEST(ValidateKCdsEquivalence, RandomNetworksAllPipelinesMatchOracle) {
  for (const AdHocNetwork& net : random_networks()) {
    for (Hops k = 1; k <= 4; ++k) {
      const Clustering c = khop_clustering(net.graph, k);
      for (const Pipeline p : kAllPipelines) {
        const Backbone b = build_backbone(net.graph, c, p);
        const std::string what = std::string(pipeline_name(p)) +
                                 " n=" + std::to_string(net.num_nodes()) +
                                 " k=" + std::to_string(k);
        EXPECT_EQ(expect_same_verdict(net.graph, c, b, what), "") << what;
      }
    }
  }
}

TEST(ValidateKCdsEquivalence, CorruptedBackbonesMatchOracle) {
  std::size_t undominated = 0, split = 0, overlap = 0;
  for (const AdHocNetwork& net : random_networks()) {
    const Graph& g = net.graph;
    const auto n = static_cast<NodeId>(g.num_nodes());
    for (Hops k = 1; k <= 3; ++k) {
      const Clustering c = khop_clustering(g, k);
      for (const Pipeline p : kAllPipelines) {
        const Backbone good = build_backbone(g, c, p);
        const std::string tag = std::string(pipeline_name(p)) +
                                " n=" + std::to_string(n) +
                                " k=" + std::to_string(k);
        const auto check = [&](const Backbone& b, const std::string& what) {
          return expect_same_verdict(g, c, b, tag + " " + what);
        };

        // A dropped head, with its links kept (a link endpoint is no longer
        // a head) and with them dropped (domination or connectivity breaks).
        for (std::size_t i = 0; i < good.heads.size(); ++i) {
          Backbone b = good;
          const NodeId h = b.heads[i];
          b.heads.erase(b.heads.begin() + static_cast<std::ptrdiff_t>(i));
          (void)check(b, "drop head " + std::to_string(h) + " keep links");
          std::erase_if(b.virtual_links, [h](const auto& l) {
            return l.first == h || l.second == h;
          });
          const std::string err =
              check(b, "drop head " + std::to_string(h));
          if (err.find("not k-hop dominated") != std::string::npos) {
            ++undominated;
          }
        }
        // Every gateway dropped in turn; the cut vertices split the CDS.
        for (std::size_t i = 0; i < good.gateways.size(); ++i) {
          Backbone b = good;
          b.gateways.erase(b.gateways.begin() +
                           static_cast<std::ptrdiff_t>(i));
          const std::string err =
              check(b, "drop gateway " + std::to_string(good.gateways[i]));
          if (err == "CDS (heads + gateways) is not connected in G") ++split;
        }
        // A node that is head and gateway: the first head, and the last
        // one together with an out-of-range gateway after it.
        if (!good.heads.empty()) {
          Backbone b = good;
          insert_sorted(b.gateways, b.heads.front());
          if (!check(b, "head as gateway").empty()) ++overlap;
          insert_sorted(b.gateways, b.heads.back());
          b.gateways.push_back(n + 3);
          (void)check(b, "two overlaps then out of range");
        }
        // Unsorted and duplicated ids.
        if (good.heads.size() >= 2) {
          Backbone b = good;
          std::swap(b.heads[0], b.heads[1]);
          (void)check(b, "unsorted heads");
          b = good;
          b.heads.insert(b.heads.begin() + 1, b.heads[1]);
          (void)check(b, "duplicated head");
        }
        if (good.gateways.size() >= 2) {
          Backbone b = good;
          std::swap(b.gateways.front(), b.gateways.back());
          (void)check(b, "unsorted gateways");
          b = good;
          b.gateways.push_back(b.gateways.back());
          (void)check(b, "duplicated gateway");
        }
        // Out-of-range ids in each list and as a link endpoint.
        {
          Backbone b = good;
          b.heads.push_back(n);
          (void)check(b, "head out of range");
          b = good;
          b.gateways.push_back(n + 7);
          (void)check(b, "gateway out of range");
          b = good;
          b.virtual_links.emplace_back(good.heads.front(), n + 1);
          (void)check(b, "link endpoint out of range");
        }
        // The empty backbone: valid as a backbone, dominating nothing.
        (void)check(Backbone{}, "empty backbone");
      }
    }
  }
  // The corruptions reached each kind of verdict.
  EXPECT_GT(undominated, 0u);
  EXPECT_GT(split, 0u);
  EXPECT_GT(overlap, 0u);
}

TEST(ValidateKCdsEquivalence, NodeExactlyKPlusOneHopsFromNearestHead) {
  // Path 0-1-..-(k+1) with the single head 0: node k+1 lies exactly one hop
  // past the coverage sweep's bound. On the path one node shorter every node
  // is dominated.
  for (Hops k = 1; k <= 4; ++k) {
    Clustering c;
    c.k = k;
    Backbone b;
    b.heads = {0};
    for (const NodeId last : {k, k + 1}) {
      EdgeList edges;
      for (NodeId v = 0; v < last; ++v) edges.emplace_back(v, v + 1);
      const Graph g = Graph::from_edges(last + 1, edges);
      const std::string err =
          expect_same_verdict(g, c, b, "k=" + std::to_string(k));
      if (last == k) {
        EXPECT_EQ(err, "");
      } else {
        EXPECT_EQ(err, "node " + std::to_string(k + 1) +
                           " is not k-hop dominated (nearest head " +
                           std::to_string(k + 1) +
                           " hops, k = " + std::to_string(k) + ")");
      }
    }
  }
}

TEST(ValidateKCdsEquivalence, EmptyAndDisconnectedGraphsMatchOracle) {
  Clustering c;
  c.k = 2;
  // No nodes, no heads: vacuously a k-CDS.
  EXPECT_EQ(expect_same_verdict(Graph(0), c, Backbone{}, "n=0"), "");
  // Two components, one head: the far component is unreachable.
  const Graph g = Graph::from_edges(5, EdgeList{{0, 1}, {1, 2}, {3, 4}});
  Backbone b;
  b.heads = {1};
  EXPECT_EQ(expect_same_verdict(g, c, b, "split"),
            "node 3 is not k-hop dominated (nearest head unreachable hops, "
            "k = 2)");
  // One head per component: dominated, but the CDS is not connected.
  b.heads = {1, 3};
  EXPECT_EQ(expect_same_verdict(g, c, b, "split CDS"),
            "CDS (heads + gateways) is not connected in G");
}

}  // namespace
}  // namespace khop
