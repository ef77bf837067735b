// validate_clustering checked against the validator it replaced, kept here
// verbatim as a test-only oracle: one unbounded BFS tree per head and an
// all-pairs head loop. The bounded validator must return byte-identical
// text on valid clusterings, on seeded corruptions of them and under every
// ClusteringChecks combination. The oracle has undefined behaviour on two
// malformed inputs; those are pinned separately against fixed messages.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "khop/cluster/clustering.hpp"
#include "khop/cluster/core_variant.hpp"
#include "khop/cluster/validate.hpp"
#include "khop/common/rng.hpp"
#include "khop/graph/bfs.hpp"
#include "khop/net/generator.hpp"
#include "khop/runtime/workspace.hpp"

namespace khop {
namespace {

// ---------------------------------------------------------------------------
// The oracle: the unbounded validate_clustering, verbatim apart from its name.

std::string legacy_validate_clustering(const Graph& g, const Clustering& c,
                                       const ClusteringChecks& checks) {
  const std::size_t n = g.num_nodes();
  std::ostringstream err;

  if (c.head_of.size() != n || c.dist_to_head.size() != n ||
      c.cluster_of.size() != n) {
    return "clustering vectors are not sized to the graph";
  }

  if (checks.require_total_membership) {
    for (NodeId v = 0; v < n; ++v) {
      if (c.head_of[v] == kInvalidNode) {
        err << "node " << v << " belongs to no cluster";
        return err.str();
      }
      if (c.cluster_of[v] >= c.heads.size() ||
          c.heads[c.cluster_of[v]] != c.head_of[v]) {
        err << "node " << v << " has inconsistent cluster index";
        return err.str();
      }
    }
    for (NodeId h : c.heads) {
      if (c.head_of[h] != h) {
        err << "head " << h << " is not its own head";
        return err.str();
      }
    }
  }

  // One BFS per head serves the remaining checks.
  std::vector<BfsTree> head_trees;
  head_trees.reserve(c.heads.size());
  for (NodeId h : c.heads) head_trees.push_back(bfs(g, h));

  if (checks.require_distance_consistency) {
    for (NodeId v = 0; v < n; ++v) {
      const auto& tree = head_trees[c.cluster_of[v]];
      if (tree.dist[v] != c.dist_to_head[v]) {
        err << "node " << v << " records distance " << c.dist_to_head[v]
            << " to head " << c.head_of[v] << " but BFS says " << tree.dist[v];
        return err.str();
      }
    }
  }

  if (checks.require_khop_dominating) {
    for (NodeId v = 0; v < n; ++v) {
      if (c.dist_to_head[v] > c.k) {
        err << "node " << v << " is " << c.dist_to_head[v]
            << " hops from its head; k = " << c.k;
        return err.str();
      }
    }
  }

  if (checks.require_khop_independent_heads) {
    for (std::size_t i = 0; i < c.heads.size(); ++i) {
      for (std::size_t j = i + 1; j < c.heads.size(); ++j) {
        const Hops d = head_trees[i].dist[c.heads[j]];
        if (d <= c.k) {
          err << "heads " << c.heads[i] << " and " << c.heads[j]
              << " are only " << d << " hops apart; k = " << c.k;
          return err.str();
        }
      }
    }
  }

  return {};
}

// ---------------------------------------------------------------------------

/// All 16 combinations of the four checks (index bits in field order).
std::vector<ClusteringChecks> all_check_combinations() {
  std::vector<ClusteringChecks> out;
  for (unsigned bits = 0; bits < 16; ++bits) {
    ClusteringChecks c;
    c.require_khop_independent_heads = (bits & 1) != 0;
    c.require_khop_dominating = (bits & 2) != 0;
    c.require_total_membership = (bits & 4) != 0;
    c.require_distance_consistency = (bits & 8) != 0;
    out.push_back(c);
  }
  return out;
}

/// Compares validate_clustering, on \p ws and on the thread's default
/// workspace, with the oracle under every check combination; returns how
/// many (combination) verdicts were errors.
std::size_t expect_same_text(const Graph& g, const Clustering& c,
                             Workspace& ws, const std::string& what) {
  std::size_t errors = 0;
  for (const ClusteringChecks& checks : all_check_combinations()) {
    const std::string want = legacy_validate_clustering(g, c, checks);
    EXPECT_EQ(validate_clustering(g, c, checks, ws), want)
        << what << " (workspace)";
    EXPECT_EQ(validate_clustering(g, c, checks), want)
        << what << " (default workspace)";
    errors += !want.empty();
  }
  return errors;
}

NodeId pick(Rng& rng, std::size_t n) {
  return static_cast<NodeId>(rng.uniform_int(n));
}

/// A member (non-head) node, or kInvalidNode if every node is a head.
NodeId pick_member(Rng& rng, const Clustering& c) {
  const std::size_t n = c.head_of.size();
  const NodeId start = pick(rng, n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = static_cast<NodeId>((start + i) % n);
    if (c.head_of[v] != v) return v;
  }
  return kInvalidNode;
}

/// Seeded corruptions of a valid clustering, one field at a time, in the
/// style of test_reader_fuzz's mutants. Every index stays in range, so the
/// oracle is well-defined on each.
std::vector<std::pair<std::string, Clustering>> corruptions(
    const Graph& g, const Clustering& c, Rng& rng) {
  std::vector<std::pair<std::string, Clustering>> out;
  const std::size_t n = g.num_nodes();
  const auto add = [&](const std::string& name, Clustering bad) {
    out.emplace_back(name, std::move(bad));
  };
  for (int rep = 0; rep < 2; ++rep) {
    const NodeId v = pick(rng, n);
    Clustering bad = c;
    ++bad.dist_to_head[v];
    add("dist+1", bad);
    bad = c;
    --bad.dist_to_head[v];  // a head's 0 wraps to kUnreachable
    add("dist-1", bad);
    bad = c;
    bad.dist_to_head[v] = kUnreachable;
    add("dist=unreachable", bad);
    bad = c;
    bad.dist_to_head[v] = c.k + 1;
    add("dist=k+1", bad);
    bad = c;
    bad.head_of[v] = kInvalidNode;
    add("no head", bad);

    if (c.heads.size() > 1) {
      // Moved to the head with the farthest id (far in the field on
      // average), or given another cluster's index only.
      const NodeId m = pick_member(rng, c);
      if (m != kInvalidNode) {
        const std::uint32_t far =
            c.cluster_of[m] == 0 ? static_cast<std::uint32_t>(c.heads.size() - 1)
                                 : 0;
        bad = c;
        bad.head_of[m] = c.heads[far];
        bad.cluster_of[m] = far;
        add("moved to far head", bad);
        bad = c;
        bad.cluster_of[m] = far;
        add("wrong cluster_of", bad);
      }
      bad = c;
      bad.head_of[c.heads[1]] = c.heads[0];
      add("head not its own head", bad);
    }

    // A member within k of its head promoted to a second head there.
    const NodeId m = pick_member(rng, c);
    if (m != kInvalidNode) {
      bad = c;
      bad.head_of[m] = m;
      bad.dist_to_head[m] = 0;
      bad.cluster_of[m] = static_cast<std::uint32_t>(bad.heads.size());
      bad.heads.push_back(m);
      add("two heads within k", bad);
    }
  }
  Clustering bad = c;
  bad.heads.push_back(c.heads.front());
  add("repeated head", bad);
  bad = c;
  bad.cluster_of.pop_back();
  add("short cluster_of", bad);
  return out;
}

TEST(ValidateEquivalence, ValidClusteringsMatchUnboundedValidator) {
  Workspace ws;
  for (const std::size_t n : {60u, 150u}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      GeneratorConfig cfg;
      cfg.num_nodes = n;
      Rng rng(seed * 131 + n);
      const Graph g = generate_network(cfg, rng).graph;
      for (Hops k = 1; k <= 4; ++k) {
        for (const auto rule :
             {AffiliationRule::kIdBased, AffiliationRule::kDistanceBased}) {
          const Clustering c = khop_clustering(
              g, k, make_priorities(g, PriorityRule::kLowestId), rule, ws);
          EXPECT_EQ(expect_same_text(g, c, ws, "khop_clustering"), 0u);
        }
        // khop_core is k-hop dominating but not independent; the
        // combinations that require independence may fail, identically.
        expect_same_text(g, khop_core(g, k), ws, "khop_core");
      }
    }
  }
}

TEST(ValidateEquivalence, CorruptedClusteringsMatchUnboundedValidator) {
  Workspace ws;
  std::size_t cases = 0;
  std::size_t errors = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    GeneratorConfig cfg;
    cfg.num_nodes = 80 + 20 * (seed % 4);
    Rng rng(seed);
    const Graph g = generate_network(cfg, rng).graph;
    for (Hops k = 1; k <= 4; ++k) {
      const Clustering c = khop_clustering(
          g, k, make_priorities(g, PriorityRule::kLowestId),
          AffiliationRule::kIdBased, ws);
      Rng mut(seed * 1000 + k);
      for (const auto& [name, bad] : corruptions(g, c, mut)) {
        errors += expect_same_text(
            g, bad, ws,
            name + " (seed " + std::to_string(seed) + ", k " +
                std::to_string(k) + ")");
        ++cases;
      }
    }
  }
  EXPECT_GT(cases, 300u);
  EXPECT_GT(errors, cases);  // most corruptions trip several combinations
}

TEST(ValidateEquivalence, NodeConfirmedOnlyByAnotherHeadIsInconsistent) {
  // Path 0-1-2-3, k = 1, clusters {0, 1} and {2, 3}. Node 1 is re-indexed
  // into head 3's cluster: head 0's search still reaches it at its recorded
  // distance, but only its own cluster's search may confirm it.
  const std::vector<std::pair<NodeId, NodeId>> edges = {{0, 1}, {1, 2},
                                                        {2, 3}};
  const Graph g = Graph::from_edges(4, edges);
  Clustering c;
  c.k = 1;
  c.heads = {0, 3};
  c.head_of = {0, 0, 3, 3};
  c.dist_to_head = {0, 1, 1, 0};
  c.cluster_of = {0, 0, 1, 1};
  Workspace ws;
  EXPECT_EQ(expect_same_text(g, c, ws, "valid path"), 0u);
  c.cluster_of[1] = 1;
  EXPECT_GT(expect_same_text(g, c, ws, "re-indexed node"), 0u);
  ClusteringChecks no_membership;
  no_membership.require_total_membership = false;
  EXPECT_EQ(validate_clustering(g, c, no_membership),
            "node 1 records distance 1 to head 0 but BFS says 2");
}

TEST(ValidateEquivalence, MalformedIndicesAreErrorsNotUndefinedBehaviour) {
  GeneratorConfig cfg;
  cfg.num_nodes = 60;
  Rng rng(4);
  const Graph g = generate_network(cfg, rng).graph;
  const Clustering c = khop_clustering(
      g, 2, make_priorities(g, PriorityRule::kLowestId));
  ASSERT_TRUE(validate_clustering(g, c).empty());

  // An unreferenced head id past the graph: the old validator read
  // head_of[h] out of range under total membership (and threw from its
  // BFS without it).
  Clustering bad = c;
  bad.heads.push_back(60 + 5);
  EXPECT_EQ(validate_clustering(g, bad), "head 65 is not a node");
  ClusteringChecks no_membership;
  no_membership.require_total_membership = false;
  EXPECT_EQ(validate_clustering(g, bad, no_membership), "head 65 is not a node");

  // A cluster index past heads: the old validator indexed its per-head
  // trees out of range when total membership was not required.
  bad = c;
  bad.cluster_of[7] = static_cast<std::uint32_t>(c.heads.size() + 3);
  EXPECT_EQ(validate_clustering(g, bad, no_membership),
            "node 7 has inconsistent cluster index");
  EXPECT_EQ(validate_clustering(g, bad),
            "node 7 has inconsistent cluster index");
  ClusteringChecks index_unused = no_membership;
  index_unused.require_distance_consistency = false;
  EXPECT_EQ(validate_clustering(g, bad, index_unused), "");
}

}  // namespace
}  // namespace khop
