// Bit-exact equivalence suite for the zero-allocation workspace subsystem:
// every *_into kernel and every stage run on a Workspace must reproduce the
// preserved reference (allocating) implementations exactly, on random
// topologies, including across repeated reuse of one workspace and across
// run_trials thread counts.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "khop/common/error.hpp"
#include "khop/exp/trial.hpp"
#include "khop/gateway/backbone.hpp"
#include "khop/graph/bfs.hpp"
#include "khop/net/generator.hpp"
#include "khop/runtime/workspace.hpp"
#include "khop/sim/engine.hpp"
#include "oracles/bfs_reference.hpp"
#include "oracles/cluster_reference.hpp"

namespace khop {
namespace {

Graph random_topology(std::size_t n, double degree, std::uint64_t seed) {
  GeneratorConfig gen;
  gen.num_nodes = n;
  gen.target_degree = degree;
  Rng rng(seed);
  return generate_network(gen, rng).graph;
}

void expect_tree_eq(const BfsTree& got, const BfsTree& want) {
  EXPECT_EQ(got.source, want.source);
  EXPECT_EQ(got.dist, want.dist);
  EXPECT_EQ(got.parent, want.parent);
}

// --- Graph layer -----------------------------------------------------------

TEST(WorkspaceEquivalence, BfsIntoMatchesReferenceAcrossReuse) {
  BfsScratch ws;
  BfsTree tree;
  // One scratch and one output object reused across graphs of different
  // sizes and across sources: every run must still be exact.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g = random_topology(40 + 17 * seed, 5.0, seed);
    for (NodeId s = 0; s < g.num_nodes(); s += 3) {
      bfs_into(g, s, ws, tree);
      expect_tree_eq(tree, reference::bfs(g, s));
    }
  }
}

TEST(WorkspaceEquivalence, BoundedBfsIntoMatchesReference) {
  BfsScratch ws;
  BfsTree tree;
  const Graph g = random_topology(90, 6.0, 7);
  for (Hops k = 0; k <= 4; ++k) {
    for (NodeId s = 0; s < g.num_nodes(); s += 5) {
      bfs_bounded_into(g, s, k, ws, tree);
      expect_tree_eq(tree, reference::bfs_bounded(g, s, k));
    }
  }
}

TEST(WorkspaceEquivalence, KHopNeighborhoodIntoMatchesReference) {
  BfsScratch ws;
  std::vector<NodeId> nbrs;
  const Graph g = random_topology(80, 6.0, 11);
  for (Hops k = 1; k <= 3; ++k) {
    for (NodeId s = 0; s < g.num_nodes(); s += 7) {
      k_hop_neighborhood_into(g, s, k, ws, nbrs);
      EXPECT_EQ(nbrs, reference::k_hop_neighborhood(g, s, k));
    }
  }
}

TEST(WorkspaceEquivalence, MultiSourceBfsIntoMatchesReference) {
  BfsScratch ws;
  MultiSourceBfs got;
  const Graph g = random_topology(100, 6.0, 13);
  const std::vector<std::vector<NodeId>> seed_sets = {
      {0}, {0, 1, 2}, {5, 40, 77}, {99, 98, 0, 51}};
  for (const auto& seeds : seed_sets) {
    multi_source_bfs_into(g, seeds, ws, got);
    const MultiSourceBfs want = reference::multi_source_bfs(g, seeds);
    EXPECT_EQ(got.dist, want.dist);
    EXPECT_EQ(got.owner, want.owner);
  }
}

TEST(WorkspaceEquivalence, AllocatingWrappersMatchReference) {
  const Graph g = random_topology(70, 5.0, 17);
  expect_tree_eq(bfs(g, 3), reference::bfs(g, 3));
  expect_tree_eq(bfs_bounded(g, 12, 2), reference::bfs_bounded(g, 12, 2));
  EXPECT_EQ(k_hop_neighborhood(g, 5, 2),
            reference::k_hop_neighborhood(g, 5, 2));
  const MultiSourceBfs got = multi_source_bfs(g, {2, 30});
  const MultiSourceBfs want = reference::multi_source_bfs(g, {2, 30});
  EXPECT_EQ(got.dist, want.dist);
  EXPECT_EQ(got.owner, want.owner);
}

TEST(WorkspaceEquivalence, DenseFrontierBottomUpMatchesReference) {
  // A large radius on the 100x100 field makes the first BFS level hold a
  // third of the graph, which drives BfsScratch through its bottom-up
  // (frontier-bitset) expansion path; the reference oracle has no such
  // switch, so equality here proves the two directions are bit-exact.
  GeneratorConfig gen;
  gen.num_nodes = 400;
  gen.explicit_radius = 45.0;
  Rng rng(23);
  const Graph g = generate_network(gen, rng).graph;
  BfsScratch ws;
  BfsTree tree;
  for (NodeId s = 0; s < g.num_nodes(); s += 37) {
    for (Hops k = 1; k <= 4; ++k) {
      bfs_bounded_into(g, s, k, ws, tree);
      expect_tree_eq(tree, reference::bfs_bounded(g, s, k));
    }
    bfs_into(g, s, ws, tree);
    expect_tree_eq(tree, reference::bfs(g, s));
  }
}

TEST(WorkspaceEquivalence, ByteEpochStampsSurviveWrap) {
  // The visited marks are one byte per node, so the epoch wraps (and the
  // stamp array is bulk-cleared) every 255 runs. Cross the wrap twice, with
  // a mid-stream graph-size change to exercise stamp growth at a non-zero
  // epoch, checking every run against the oracle.
  BfsScratch ws;
  BfsTree tree;
  const Graph small = random_topology(60, 5.0, 29);
  const Graph large = random_topology(150, 6.0, 31);
  for (int iter = 0; iter < 600; ++iter) {
    const Graph& g = (iter >= 300 && iter < 420) ? large : small;
    const NodeId s = static_cast<NodeId>(iter) % g.num_nodes();
    bfs_bounded_into(g, s, 2, ws, tree);
    expect_tree_eq(tree, reference::bfs_bounded(g, s, 2));
  }
  // Multi-source reuses the same stamps right after the wrap region.
  MultiSourceBfs got;
  multi_source_bfs_into(small, {0, 17, 58}, ws, got);
  const MultiSourceBfs want = reference::multi_source_bfs(small, {0, 17, 58});
  EXPECT_EQ(got.dist, want.dist);
  EXPECT_EQ(got.owner, want.owner);
}

// --- Cluster layer ---------------------------------------------------------

void expect_clustering_eq(const Clustering& got, const Clustering& want) {
  EXPECT_EQ(got.k, want.k);
  EXPECT_EQ(got.heads, want.heads);
  EXPECT_EQ(got.head_of, want.head_of);
  EXPECT_EQ(got.dist_to_head, want.dist_to_head);
  EXPECT_EQ(got.cluster_of, want.cluster_of);
  EXPECT_EQ(got.election_rounds, want.election_rounds);
}

TEST(WorkspaceEquivalence, ClusteringMatchesReferenceAllRules) {
  Workspace ws;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = random_topology(60 + 20 * seed, 6.0, 100 + seed);
    const auto prios = make_priorities(g, PriorityRule::kLowestId);
    for (const AffiliationRule rule :
         {AffiliationRule::kIdBased, AffiliationRule::kDistanceBased,
          AffiliationRule::kSizeBased}) {
      for (Hops k = 1; k <= 3; ++k) {
        // The same workspace is reused across every configuration.
        expect_clustering_eq(khop_clustering(g, k, prios, rule, ws),
                             reference::khop_clustering(g, k, prios, rule));
      }
    }
  }
}

TEST(WorkspaceEquivalence, ClusteringDegreePrioritiesMatchReference) {
  Workspace ws;
  const Graph g = random_topology(90, 7.0, 23);
  const auto prios = make_priorities(g, PriorityRule::kHighestDegree);
  expect_clustering_eq(
      khop_clustering(g, 2, prios, AffiliationRule::kIdBased, ws),
      reference::khop_clustering(g, 2, prios, AffiliationRule::kIdBased));
}

TEST(WorkspaceEquivalence, CoreVariantMatchesReference) {
  Workspace ws;
  const Graph g = random_topology(80, 6.0, 29);
  const auto prios = make_priorities(g, PriorityRule::kLowestId);
  for (Hops k = 1; k <= 3; ++k) {
    expect_clustering_eq(khop_core(g, k, prios, ws),
                         reference::khop_core(g, k, prios));
  }
}

constexpr AffiliationRule kAllRules[] = {AffiliationRule::kIdBased,
                                         AffiliationRule::kDistanceBased,
                                         AffiliationRule::kSizeBased};

Graph path_graph(std::size_t n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return Graph::from_edges(n, edges);
}

Graph star_graph(std::size_t n, NodeId center) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v < n; ++v) {
    if (v != center) edges.emplace_back(center, v);
  }
  return Graph::from_edges(n, edges);
}

Graph complete_graph(std::size_t n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  return Graph::from_edges(n, edges);
}

/// Keys shared by pairs of nodes: key v / 2, one common id field, so nodes
/// 2j and 2j + 1 compare equal.
std::vector<PriorityKey> paired_tie_priorities(std::size_t n) {
  std::vector<PriorityKey> keys(n);
  for (NodeId v = 0; v < n; ++v) keys[v] = {static_cast<double>(v / 2), 0};
  return keys;
}

/// The workspace election must match the reference, including when the
/// reference rejects the input (tied same-round winners within k hops).
/// Returns whether the election completed.
bool expect_clustering_matches_or_both_throw(
    const Graph& g, Hops k, const std::vector<PriorityKey>& prios,
    AffiliationRule rule, Workspace& ws) {
  Clustering want;
  try {
    want = reference::khop_clustering(g, k, prios, rule);
  } catch (const InvariantViolation&) {
    EXPECT_THROW(khop_clustering(g, k, prios, rule, ws), InvariantViolation);
    return false;
  }
  expect_clustering_eq(khop_clustering(g, k, prios, rule, ws), want);
  return true;
}

TEST(WorkspaceEquivalence, ClusteringTiedPrioritiesMatchReference) {
  Workspace ws;
  int completed = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g = random_topology(60 + 15 * seed, 6.0, 600 + seed);
    const auto prios = paired_tie_priorities(g.num_nodes());
    for (const AffiliationRule rule : kAllRules) {
      for (Hops k = 1; k <= 4; ++k) {
        completed += expect_clustering_matches_or_both_throw(g, k, prios,
                                                             rule, ws);
      }
    }
  }
  EXPECT_GT(completed, 0);
}

TEST(WorkspaceEquivalence, ClusteringTiedWinnersFarApartAllWin) {
  // Path 0..19, k = 1, key v % 5 with one shared id field: the four key-0
  // nodes tie, are 5 hops apart, and all win round 1; the key-2 nodes tie
  // in round 2; node 19 waits for node 18's cluster to form.
  const Graph g = path_graph(20);
  std::vector<PriorityKey> prios(20);
  for (NodeId v = 0; v < 20; ++v) prios[v] = {static_cast<double>(v % 5), 0};
  Workspace ws;
  const Clustering c =
      khop_clustering(g, 1, prios, AffiliationRule::kIdBased, ws);
  EXPECT_EQ(c.heads,
            (std::vector<NodeId>{0, 2, 5, 7, 10, 12, 15, 17, 19}));
  EXPECT_EQ(c.election_rounds, 3u);
  expect_clustering_eq(
      c, reference::khop_clustering(g, 1, prios, AffiliationRule::kIdBased));
}

TEST(WorkspaceEquivalence, ClusteringPathStarCompleteMatchReference) {
  // Diameters 11, 2 and 1: k runs past each, where one head must cover all.
  struct Case {
    Graph g;
    Hops diameter;
  };
  const Case cases[] = {{path_graph(12), 11},
                        {star_graph(9, 4), 2},
                        {complete_graph(7), 1}};
  Workspace ws;
  for (const Case& cs : cases) {
    const std::size_t n = cs.g.num_nodes();
    std::vector<PriorityKey> reversed(n);
    for (NodeId v = 0; v < n; ++v) {
      reversed[v] = {static_cast<double>(n - v), v};
    }
    for (const auto& prios :
         {make_priorities(cs.g, PriorityRule::kLowestId), reversed}) {
      for (const AffiliationRule rule : kAllRules) {
        std::vector<Hops> ks;
        for (Hops k = 1; k <= cs.diameter + 2; ++k) ks.push_back(k);
        ks.push_back(1000000);  // the sweeps stop once labels converge
        for (const Hops k : ks) {
          const Clustering got = khop_clustering(cs.g, k, prios, rule, ws);
          expect_clustering_eq(
              got, reference::khop_clustering(cs.g, k, prios, rule));
          if (k >= cs.diameter) {
            EXPECT_EQ(got.heads.size(), 1u);
            EXPECT_EQ(got.election_rounds, 1u);
          }
          expect_clustering_eq(khop_core(cs.g, k, prios, ws),
                               reference::khop_core(cs.g, k, prios));
        }
      }
    }
  }
}

TEST(WorkspaceEquivalence, ClusteringDegreeEnergyTimerPrioritiesK1To4) {
  Workspace ws;
  const Graph g = random_topology(120, 7.0, 41);
  // Drain some nodes as heads or gateways so residuals differ (and tie in
  // groups, leaving the id to break them).
  EnergyState energy(EnergyConfig{}, g.num_nodes());
  std::vector<NodeRole> roles(g.num_nodes(), NodeRole::kMember);
  for (NodeId v = 0; v < g.num_nodes(); v += 3) roles[v] = NodeRole::kGateway;
  for (NodeId v = 0; v < g.num_nodes(); v += 7) {
    roles[v] = NodeRole::kClusterhead;
  }
  energy.apply_epoch(roles);
  Rng rng(43);
  const std::vector<PriorityKey> prio_sets[] = {
      make_priorities(g, PriorityRule::kHighestDegree),
      make_priorities(g, PriorityRule::kHighestEnergy, &energy),
      make_priorities(g, PriorityRule::kRandomTimer, nullptr, &rng),
  };
  for (const auto& prios : prio_sets) {
    for (const AffiliationRule rule : kAllRules) {
      for (Hops k = 1; k <= 4; ++k) {
        expect_clustering_eq(khop_clustering(g, k, prios, rule, ws),
                             reference::khop_clustering(g, k, prios, rule));
      }
    }
  }
}

TEST(WorkspaceEquivalence, ClusteringWorkspaceReusedOnSmallerGraph) {
  // Buffers sized for the large graph keep stale entries past the small
  // graph's n; the election must read only the first n.
  Workspace ws;
  const Graph large = random_topology(400, 8.0, 51);
  const Graph small = random_topology(40, 5.0, 53);
  for (const Graph* g : {&large, &small, &large, &small}) {
    Rng rng(57);
    const auto prios = make_priorities(*g, PriorityRule::kRandomTimer,
                                       nullptr, &rng);
    for (Hops k = 1; k <= 4; ++k) {
      expect_clustering_eq(
          khop_clustering(*g, k, prios, AffiliationRule::kDistanceBased, ws),
          reference::khop_clustering(*g, k, prios,
                                     AffiliationRule::kDistanceBased));
      expect_clustering_eq(khop_core(*g, k, prios, ws),
                           reference::khop_core(*g, k, prios));
    }
  }
}

TEST(WorkspaceEquivalence, CoreVariantMatchesReferenceK1To4) {
  Workspace ws;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = random_topology(70 + 20 * seed, 6.0, 700 + seed);
    Rng rng(seed);
    // Tied keys included: the reference keeps u on a tie with u and
    // otherwise takes the smallest id among the best keys.
    const std::vector<PriorityKey> prio_sets[] = {
        make_priorities(g, PriorityRule::kLowestId),
        make_priorities(g, PriorityRule::kHighestDegree),
        make_priorities(g, PriorityRule::kRandomTimer, nullptr, &rng),
        paired_tie_priorities(g.num_nodes()),
    };
    for (const auto& prios : prio_sets) {
      for (Hops k = 1; k <= 4; ++k) {
        expect_clustering_eq(khop_core(g, k, prios, ws),
                             reference::khop_core(g, k, prios));
      }
    }
  }
  for (Hops k = 1; k <= 3; ++k) {
    const Graph g = star_graph(6, 3);
    const auto prios = paired_tie_priorities(6);
    expect_clustering_eq(khop_core(g, k, prios, ws),
                         reference::khop_core(g, k, prios));
  }
}

TEST(WorkspaceEquivalence, ElectionsRejectNaNPriorities) {
  const Graph g = path_graph(4);
  auto prios = make_priorities(g, PriorityRule::kLowestId);
  prios[2].key = std::numeric_limits<double>::quiet_NaN();
  Workspace ws;
  EXPECT_THROW(khop_clustering(g, 2, prios, AffiliationRule::kIdBased, ws),
               InvalidArgument);
  EXPECT_THROW(khop_core(g, 2, prios, ws), InvalidArgument);
}

TEST(WorkspaceEquivalence, KrishnaCoverMatchesReferenceAcrossReuse) {
  // Successive calls on graphs of growing size: each call's ball cache is
  // its own, so no row of an earlier, smaller graph can leak into a later
  // cover.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = random_topology(50 + 10 * seed, 5.0, 200 + seed);
    for (Hops k = 1; k <= 2; ++k) {
      const KClusterCover got = krishna_kclusters(g, k);
      const KClusterCover want = reference::krishna_kclusters(g, k);
      EXPECT_EQ(got.k, want.k);
      EXPECT_EQ(got.clusters, want.clusters);
      EXPECT_EQ(got.clusters_of, want.clusters_of);
    }
  }
}

// --- Gateway layer ---------------------------------------------------------

TEST(WorkspaceEquivalence, BackboneIdenticalWithSharedWorkspace) {
  Workspace ws;
  const Graph g = random_topology(100, 6.0, 31);
  const Clustering c = khop_clustering(g, 2);
  for (const Pipeline p : kAllPipelines) {
    const Backbone with_ws = build_backbone(g, c, p, ws);
    const Backbone without = build_backbone(g, c, p);
    EXPECT_EQ(with_ws.heads, without.heads);
    EXPECT_EQ(with_ws.gateways, without.gateways);
    EXPECT_EQ(with_ws.virtual_links, without.virtual_links);
  }
}

// --- Sim layer -------------------------------------------------------------

// Trace-recording flood agent: every delivery is logged in processing order,
// so two engines (or an engine and the naive reference simulation below)
// agree iff their delivery sequences are bit-identical.
struct TraceEntry {
  std::size_t round;
  NodeId receiver;
  NodeId sender;
  std::uint16_t type;
  std::vector<std::int64_t> payload;

  bool operator==(const TraceEntry&) const = default;
};

class TracingFloodAgent : public NodeAgent {
 public:
  TracingFloodAgent(NodeId id, Hops ttl, std::vector<TraceEntry>* trace)
      : id_(id), ttl_(ttl), trace_(trace) {}

  void on_start(NodeContext& ctx) override {
    ctx.broadcast(1, {static_cast<std::int64_t>(id_),
                      static_cast<std::int64_t>(ttl_)});
  }

  void on_message(NodeContext& ctx, const Message& msg) override {
    trace_->push_back(TraceEntry{ctx.round(), ctx.id(), msg.sender, msg.type,
                                 msg.data.to_vector()});
    const auto origin = msg.data[0];
    const auto ttl = msg.data[1];
    if (ttl > 1 && !seen_.contains(origin)) {
      seen_[origin] = true;
      ctx.broadcast(1, {origin, ttl - 1});
    }
  }

 private:
  NodeId id_;
  Hops ttl_;
  std::vector<TraceEntry>* trace_;
  std::map<std::int64_t, bool> seen_;
};

// Reference simulation of the same flood protocol with the engine's
// documented semantics, implemented the pre-arena way: per-destination
// vector-of-vectors of owned-payload messages, per-inbox (sender, type,
// payload) sort, destinations in ascending order.
std::vector<TraceEntry> reference_flood_trace(const Graph& g, Hops ttl,
                                              std::size_t max_rounds) {
  struct OwnedMsg {
    NodeId sender;
    std::uint16_t type;
    std::vector<std::int64_t> data;
  };
  const std::size_t n = g.num_nodes();
  std::vector<std::vector<OwnedMsg>> pending(n);
  std::vector<std::map<std::int64_t, bool>> seen(n);
  std::vector<TraceEntry> trace;

  const auto broadcast = [&](NodeId from, std::vector<std::int64_t> data) {
    for (NodeId v : g.neighbors(from)) {
      pending[v].push_back(OwnedMsg{from, 1, data});
    }
  };

  for (NodeId v = 0; v < n; ++v) {
    broadcast(v, {static_cast<std::int64_t>(v), static_cast<std::int64_t>(ttl)});
  }

  for (std::size_t round = 1; round <= max_rounds; ++round) {
    std::vector<std::vector<OwnedMsg>> inbox(n);
    inbox.swap(pending);
    bool any = false;
    for (NodeId v = 0; v < n; ++v) {
      auto& box = inbox[v];
      std::sort(box.begin(), box.end(), [](const OwnedMsg& a, const OwnedMsg& b) {
        return std::tie(a.sender, a.type, a.data) <
               std::tie(b.sender, b.type, b.data);
      });
      for (const OwnedMsg& m : box) {
        any = true;
        trace.push_back(TraceEntry{round, v, m.sender, m.type, m.data});
        const auto origin = m.data[0];
        const auto t = m.data[1];
        if (t > 1 && !seen[v].contains(origin)) {
          seen[v][origin] = true;
          broadcast(v, {origin, t - 1});
        }
      }
    }
    if (!any) break;
  }
  return trace;
}

TEST(WorkspaceEquivalence, ArenaEngineTraceMatchesNaiveReference) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = random_topology(40, 5.0, 300 + seed);
    const Hops ttl = 3;

    std::vector<TraceEntry> engine_trace;
    SyncEngine engine(g, [&](NodeId v) {
      return std::make_unique<TracingFloodAgent>(v, ttl, &engine_trace);
    });
    EXPECT_TRUE(engine.run(ttl + 2));

    const std::vector<TraceEntry> want = reference_flood_trace(g, ttl, ttl + 2);
    EXPECT_EQ(engine_trace, want);
  }
}

TEST(WorkspaceEquivalence, ArenaEngineStatsMatchPerNeighborAccounting) {
  // payload_words must count one materialization per broadcast (as the
  // original per-neighbor-copy engine did), receptions one per delivery.
  const Graph g = random_topology(30, 4.0, 41);
  std::vector<TraceEntry> trace;
  SyncEngine engine(g, [&](NodeId v) {
    return std::make_unique<TracingFloodAgent>(v, 1, &trace);
  });
  EXPECT_TRUE(engine.run(4));
  EXPECT_EQ(engine.stats().transmissions, g.num_nodes());
  EXPECT_EQ(engine.stats().payload_words, 2 * g.num_nodes());
  EXPECT_EQ(engine.stats().receptions, 2 * g.num_edges());
  EXPECT_EQ(trace.size(), 2 * g.num_edges());
}

// --- Exp layer -------------------------------------------------------------

TEST(WorkspaceEquivalence, RunTrialsWorkspaceBitIdenticalAcrossThreadCounts) {
  const TrialFn fn = [](Rng& rng, std::size_t trial,
                        Workspace& ws) -> std::vector<double> {
    const Graph g = random_topology(50, 5.0, 500 + trial);
    const Clustering c = khop_clustering(
        g, 2, make_priorities(g, PriorityRule::kLowestId),
        AffiliationRule::kIdBased, ws);
    return {static_cast<double>(c.heads.size()), rng.uniform()};
  };

  TrialPolicy policy;
  policy.min_trials = 8;
  policy.max_trials = 8;
  policy.batch = 4;

  ThreadPool p1(1);
  ThreadPool p4(4);
  const TrialSummary a = run_trials(p1, policy, Rng(77), 2, fn);
  const TrialSummary b = run_trials(p4, policy, Rng(77), 2, fn);
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (std::size_t m = 0; m < a.metrics.size(); ++m) {
    EXPECT_EQ(a.metrics[m].mean(), b.metrics[m].mean());
    EXPECT_EQ(a.metrics[m].variance(), b.metrics[m].variance());
  }
}

}  // namespace
}  // namespace khop
