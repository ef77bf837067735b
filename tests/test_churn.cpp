// Churn subsystem tests: DynamicGraph, trace generation, the incremental
// engine checked bit-exact against the naive full-recompute reference after
// every event, and the section-3.3 maintenance scenarios (member, gateway and
// head failure, partitioning failure, node switch-on) as single events.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "khop/common/error.hpp"
#include "khop/dynamic/churn_engine.hpp"
#include "khop/dynamic/churn_trace.hpp"
#include "khop/gateway/lmst.hpp"
#include "khop/gateway/validate.hpp"
#include "khop/gateway/virtual_link.hpp"
#include "khop/graph/bfs.hpp"
#include "khop/graph/dynamic_graph.hpp"
#include "khop/nbr/neighbor_rules.hpp"
#include "khop/net/generator.hpp"
#include "khop/net/mobility.hpp"
#include "khop/runtime/thread_pool.hpp"
#include "oracles/bfs_reference.hpp"
#include "oracles/churn_reference.hpp"
#include "oracles/gateway_reference.hpp"

namespace khop {
namespace {

Graph make_network(std::uint64_t seed, std::size_t n, double degree = 8.0) {
  GeneratorConfig cfg;
  cfg.num_nodes = n;
  cfg.target_degree = degree;
  Rng rng(seed);
  return generate_network(cfg, rng).graph;
}

// ---------------------------------------------------------------------------
// DynamicGraph

TEST(DynamicGraph, MutationsAndSnapshot) {
  const Graph g0 = Graph::from_edges(
      5, std::vector<std::pair<NodeId, NodeId>>{
             {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  DynamicGraph g(g0);
  EXPECT_EQ(g.num_alive(), 5u);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_TRUE(g.has_edge(0, 4));

  const std::vector<NodeId> former = g.remove_node(2);
  EXPECT_EQ(former, (std::vector<NodeId>{1, 3}));
  EXPECT_FALSE(g.alive(2));
  EXPECT_EQ(g.num_alive(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.neighbors(2).empty());
  EXPECT_EQ(g.check_consistency(), "");

  EXPECT_TRUE(g.add_edge(1, 3));
  EXPECT_FALSE(g.add_edge(1, 3));  // already present
  EXPECT_TRUE(g.remove_edge(1, 3));
  EXPECT_FALSE(g.remove_edge(1, 3));  // already absent

  g.add_node(2, std::vector<NodeId>{1, 4});
  EXPECT_TRUE(g.alive(2));
  EXPECT_TRUE(g.has_edge(2, 4));
  EXPECT_FALSE(g.has_edge(2, 3));
  EXPECT_EQ(g.check_consistency(), "");

  const Graph snap = g.snapshot();
  EXPECT_EQ(snap.num_nodes(), 5u);
  EXPECT_EQ(snap.num_edges(), g.num_edges());
  EXPECT_TRUE(snap.has_edge(2, 4));
  EXPECT_FALSE(snap.has_edge(2, 3));
}

TEST(DynamicGraph, RejectsInvalidMutations) {
  const Graph g0 = Graph::from_edges(
      3, std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {1, 2}});
  DynamicGraph g(g0);
  EXPECT_THROW(g.add_node(0, std::vector<NodeId>{1}), InvalidArgument);  // already alive
  g.remove_node(2);
  EXPECT_THROW(g.remove_node(2), InvalidArgument);    // already dead
  EXPECT_THROW(g.add_edge(0, 2), InvalidArgument);    // dead endpoint
  EXPECT_THROW(g.add_node(2, std::vector<NodeId>{2}), InvalidArgument);  // self-loop
  // A repeated neighbor is caught before the first edge goes in.
  EXPECT_THROW(g.add_node(2, std::vector<NodeId>{1, 1}), InvalidArgument);
  EXPECT_FALSE(g.alive(2));
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.check_consistency(), "");
}

// ---------------------------------------------------------------------------
// VirtualLinkMap incremental mutators

TEST(VirtualLinkMap, InsertAndErase) {
  VirtualLinkMap m;
  m.insert(1, 5, 2, std::vector<NodeId>{1, 3, 5});
  m.insert(2, 5, 1, std::vector<NodeId>{2, 5});
  EXPECT_TRUE(m.contains(5, 1));
  EXPECT_EQ(m.link(1, 5).hops, 2u);

  m.insert(1, 5, 3, std::vector<NodeId>{1, 0, 4, 5});  // upsert replaces
  EXPECT_EQ(m.link(1, 5).hops, 3u);
  EXPECT_TRUE(std::ranges::equal(m.path(m.link(1, 5)),
                                 std::vector<NodeId>{1, 0, 4, 5}));
  EXPECT_EQ(m.all().size(), 2u);

  EXPECT_TRUE(m.erase(1, 5));
  EXPECT_FALSE(m.erase(1, 5));
  EXPECT_FALSE(m.contains(1, 5));
  EXPECT_TRUE(m.contains(2, 5));  // survivor index stays valid after swap-pop
  EXPECT_EQ(m.link(2, 5).hops, 1u);
}

// ---------------------------------------------------------------------------
// ChurnTrace

TEST(ChurnTrace, DeterministicAndValidByConstruction) {
  const Graph g0 = make_network(7701, 60);
  ChurnTraceConfig cfg;
  cfg.num_events = 300;
  const ChurnTrace a = ChurnTrace::generate(g0, cfg, 99);
  const ChurnTrace b = ChurnTrace::generate(g0, cfg, 99);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].type, b.events()[i].type);
    EXPECT_EQ(a.events()[i].a, b.events()[i].a);
    EXPECT_EQ(a.events()[i].b, b.events()[i].b);
    EXPECT_EQ(a.events()[i].neighbors, b.events()[i].neighbors);
  }
  const ChurnTrace c = ChurnTrace::generate(g0, cfg, 100);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = c.events()[i].type != a.events()[i].type ||
              c.events()[i].a != a.events()[i].a;
  }
  EXPECT_TRUE(differs);

  // Replay never trips a DynamicGraph precondition.
  DynamicGraph g(g0);
  for (const ChurnEvent& e : a.events()) apply_event(g, e);
  EXPECT_EQ(g.check_consistency(), "");
}

TEST(ChurnTrace, PartitionScenarioEmitsScriptedFailuresAndRejoins) {
  const Graph g0 = make_network(7702, 80);
  ChurnTraceConfig cfg;
  cfg.num_events = 150;
  cfg.partition_at = 20;
  cfg.partition_radius = 2;
  cfg.rejoin_after = 30;
  const ChurnTrace t = ChurnTrace::generate(g0, cfg, 5);
  std::size_t fails = 0;
  std::size_t joins = 0;
  for (const ChurnEvent& e : t.events()) {
    fails += e.type == ChurnEventType::kFail;
    joins += e.type == ChurnEventType::kJoin;
  }
  EXPECT_GT(fails, 0u);
  EXPECT_GT(joins, 0u);
}

// ---------------------------------------------------------------------------
// ChurnEngine vs ReferenceChurnMaintainer (bit-exact after every event)

struct EngineCase {
  std::uint64_t seed;
  std::size_t n;
  Hops k;
  Pipeline pipeline;
};

class EngineEquivalence : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineEquivalence, MatchesReferenceAfterEveryEvent) {
  const EngineCase p = GetParam();
  const Graph g0 = make_network(p.seed, p.n);
  ChurnTraceConfig cfg;
  cfg.num_events = 250;
  const ChurnTrace trace = ChurnTrace::generate(g0, cfg, p.seed + 1);

  ChurnEngine engine(g0, p.k, p.pipeline);
  ReferenceChurnMaintainer ref(g0, p.k, p.pipeline);
  std::size_t applied = 0;
  for (const ChurnEvent& e : trace.events()) {
    engine.apply(e);
    ref.apply(e);
    ++applied;
    ASSERT_EQ(engine.clustering().head_of, ref.head_of())
        << "head_of diverged after event " << applied;
    ASSERT_EQ(engine.clustering().dist_to_head, ref.dist_to_head())
        << "dist_to_head diverged after event " << applied;
    if (applied % 50 == 0) {
      const Backbone oracle = ref.rebuild_backbone();
      Backbone got = engine.backbone();
      std::sort(got.heads.begin(), got.heads.end());
      std::sort(got.gateways.begin(), got.gateways.end());
      std::sort(got.virtual_links.begin(), got.virtual_links.end());
      ASSERT_EQ(got.heads, oracle.heads) << "after event " << applied;
      ASSERT_EQ(got.gateways, oracle.gateways) << "after event " << applied;
      ASSERT_EQ(got.virtual_links, oracle.virtual_links)
          << "after event " << applied;
      ASSERT_EQ(engine.audit(), "") << "after event " << applied;
    }
  }
  EXPECT_EQ(engine.stats().full_rebuilds, 0u);
  EXPECT_EQ(engine.audit(), "");
}

INSTANTIATE_TEST_SUITE_P(
    Churn, EngineEquivalence,
    ::testing::Values(EngineCase{4201, 70, 1, Pipeline::kAcMesh},
                      EngineCase{4202, 80, 2, Pipeline::kAcLmst},
                      EngineCase{4203, 80, 2, Pipeline::kNcMesh},
                      EngineCase{4204, 90, 3, Pipeline::kNcLmst}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      std::string name = "n" + std::to_string(info.param.n) + "_k" +
                         std::to_string(info.param.k) + "_" +
                         std::string(pipeline_name(info.param.pipeline));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// The incremental gateway combine recomputes keep lists only for dirty heads.
// After every event its backbone must equal a from-scratch lmst_gateways
// over the engine's own selections and links, on a trace with a head
// failure and a partition.
struct CombineCase {
  Hops k;
  Pipeline pipeline;
};

class IncrementalCombine : public ::testing::TestWithParam<CombineCase> {};

/// The engine's selections, derived from its link store (selections are
/// symmetric and the store holds exactly the selected pairs).
NeighborSelection engine_selection(const ChurnEngine& engine) {
  const std::vector<NodeId>& heads = engine.clustering().heads;
  NeighborSelection sel;
  sel.rule = spec_for(engine.pipeline()).neighbor_rule;
  sel.selected.resize(heads.size());
  const auto index_of = [&](NodeId h) {
    return std::lower_bound(heads.begin(), heads.end(), h) - heads.begin();
  };
  for (const VirtualLink& l : engine.virtual_links().all()) {
    sel.selected[index_of(l.u)].push_back(l.v);
    sel.selected[index_of(l.v)].push_back(l.u);
    sel.head_pairs.emplace_back(l.u, l.v);
  }
  for (auto& list : sel.selected) std::sort(list.begin(), list.end());
  std::sort(sel.head_pairs.begin(), sel.head_pairs.end());
  return sel;
}

TEST_P(IncrementalCombine, MatchesFromScratchCombineAfterEveryEvent) {
  const CombineCase p = GetParam();
  // Large enough that a 2k+1 ball is a small part of the network, so the
  // dirty set is a strict subset of the heads.
  const Graph g0 = make_network(4401 + p.k, 400);
  ChurnTraceConfig cfg;
  cfg.num_events = 400;
  cfg.partition_at = 40;
  cfg.partition_radius = 2;
  cfg.rejoin_after = 40;
  const ChurnTrace trace = ChurnTrace::generate(g0, cfg, 23 + p.k);

  ChurnEngine engine(g0, p.k, p.pipeline);
  const BackboneSpec spec = spec_for(p.pipeline);
  std::size_t head_failures = 0;
  std::size_t local_combines = 0;  // dirty set beyond the re-swept heads
  std::size_t applied = 0;
  for (const ChurnEvent& e : trace.events()) {
    head_failures += e.type == ChurnEventType::kFail &&
                     engine.clustering().head_of[e.a] == e.a;
    const ChurnEventReport rep = engine.apply(e);
    ++applied;
    EXPECT_LE(rep.lmst_heads, engine.clustering().heads.size());
    local_combines += rep.lmst_heads > rep.heads_resweeped &&
                      rep.lmst_heads < engine.clustering().heads.size();
    const NeighborSelection sel = engine_selection(engine);
    const LmstResult want = lmst_gateways(engine.clustering(), sel,
                                          engine.virtual_links(),
                                          spec.lmst_keep);
    ASSERT_EQ(engine.backbone().virtual_links, want.kept_links)
        << "after event " << applied;
    ASSERT_EQ(engine.backbone().gateways, want.gateways)
        << "after event " << applied;
  }
  EXPECT_GT(head_failures, 0u);
  EXPECT_GT(engine.stats().partitions, 0u);
  EXPECT_GT(local_combines, 0u);
  EXPECT_EQ(engine.audit(), "");
}

INSTANTIATE_TEST_SUITE_P(
    Churn, IncrementalCombine,
    ::testing::Values(CombineCase{1, Pipeline::kAcLmst},
                      CombineCase{2, Pipeline::kAcLmst},
                      CombineCase{3, Pipeline::kAcLmst},
                      CombineCase{1, Pipeline::kNcLmst},
                      CombineCase{2, Pipeline::kNcLmst},
                      CombineCase{3, Pipeline::kNcLmst}),
    [](const ::testing::TestParamInfo<CombineCase>& info) {
      std::string name = "k" + std::to_string(info.param.k) + "_" +
                         std::string(pipeline_name(info.param.pipeline));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(ChurnEngine, PartitionAndRejoinStayAudited) {
  const Graph g0 = make_network(4301, 90);
  ChurnTraceConfig cfg;
  cfg.num_events = 160;
  cfg.partition_at = 15;
  cfg.partition_radius = 2;
  cfg.rejoin_after = 25;
  const ChurnTrace trace = ChurnTrace::generate(g0, cfg, 17);

  ChurnEngineOptions opts;
  opts.audit_every = 20;
  ChurnEngine engine(g0, 2, Pipeline::kAcLmst, opts);
  ReferenceChurnMaintainer ref(g0, 2, Pipeline::kAcLmst);
  for (const ChurnEvent& e : trace.events()) {
    engine.apply(e);
    ref.apply(e);
    ASSERT_EQ(engine.clustering().head_of, ref.head_of());
  }
  EXPECT_EQ(engine.audit(), "");
  EXPECT_GT(engine.stats().partitions, 0u);
  EXPECT_GT(engine.stats().merges, 0u);
  EXPECT_EQ(engine.stats().full_rebuilds, 0u);
}

TEST(ChurnEngine, RunAuditsPeriodically) {
  const Graph g0 = make_network(4302, 60);
  ChurnTraceConfig cfg;
  cfg.num_events = 120;
  const ChurnTrace trace = ChurnTrace::generate(g0, cfg, 3);
  ChurnEngineOptions opts;
  opts.audit_every = 10;
  ChurnEngine engine(g0, 2, Pipeline::kNcMesh, opts);
  EXPECT_EQ(engine.run(trace), trace.size());
  EXPECT_GE(engine.stats().audits, trace.size() / 10);
  EXPECT_EQ(engine.stats().events, trace.size());
}

TEST(ChurnEngine, LinkNoOpIsReported) {
  const Graph g0 = make_network(4303, 40);
  ChurnEngine engine(g0, 2, Pipeline::kAcMesh);
  // Re-adding an existing edge is a structural no-op.
  NodeId u = 0;
  const auto nbrs = g0.neighbors(0);
  ASSERT_FALSE(nbrs.empty());
  NodeId v = nbrs.front();
  if (u > v) std::swap(u, v);
  ChurnEvent e;
  e.type = ChurnEventType::kLinkUp;
  e.a = u;
  e.b = v;
  const auto rep = engine.apply(e);
  EXPECT_TRUE(rep.structural_noop);
  EXPECT_EQ(engine.stats().noop_events, 1u);
  EXPECT_EQ(engine.audit(), "");
}

TEST(ChurnEngine, RejectsGmstAndBadK) {
  const Graph g0 = make_network(4304, 30);
  EXPECT_THROW(ChurnEngine(g0, 2, Pipeline::kGmst), InvalidArgument);
  EXPECT_THROW(ChurnEngine(g0, 0, Pipeline::kAcMesh), InvalidArgument);
}

ChurnEvent fail_event(NodeId v) {
  ChurnEvent e;
  e.type = ChurnEventType::kFail;
  e.a = v;
  return e;
}

ChurnEvent join_event(NodeId v, std::vector<NodeId> nbrs) {
  ChurnEvent e;
  e.type = ChurnEventType::kJoin;
  e.a = v;
  e.neighbors = std::move(nbrs);
  return e;
}

ChurnEvent link_event(ChurnEventType type, NodeId a, NodeId b) {
  ChurnEvent e;
  e.type = type;
  e.a = a;
  e.b = b;
  return e;
}

std::vector<std::size_t> counter_values(const ChurnCounters& c) {
  return {c.events,         c.fails,         c.joins,
          c.link_downs,     c.link_ups,      c.noop_events,
          c.full_rebuilds,  c.orphans,       c.reaffiliations,
          c.new_heads,      c.heads_resweeped, c.touched_nodes,
          c.partitions,     c.merges,        c.audits};
}

std::vector<std::vector<NodeId>> adjacency(const Graph& g) {
  std::vector<std::vector<NodeId>> adj(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbrs = g.neighbors(u);
    adj[u].assign(nbrs.begin(), nbrs.end());
  }
  return adj;
}

TEST(ChurnEngine, RejectedEventLeavesStateUntouched) {
  const Graph g0 = make_network(4305, 60);
  ChurnEngine engine(g0, 2, Pipeline::kAcLmst);
  const NodeId dead = 7;
  const NodeId dead2 = 9;
  engine.apply(fail_event(dead));
  engine.apply(fail_event(dead2));
  const NodeId live = 3;
  const NodeId n = static_cast<NodeId>(g0.num_nodes());
  ASSERT_TRUE(engine.graph().alive(live));

  const std::vector<ChurnEvent> rejected = {
      fail_event(n),                                        // id out of range
      link_event(ChurnEventType::kLinkUp, live, n),         // id out of range
      fail_event(dead),                                     // dead node fails
      join_event(live, {}),                                 // alive node joins
      link_event(ChurnEventType::kLinkUp, live, dead),      // dead endpoint
      link_event(ChurnEventType::kLinkDown, dead, live),    // dead endpoint
      link_event(ChurnEventType::kLinkUp, live, live),      // self-link
      link_event(ChurnEventType::kLinkDown, live, live),    // self-link
      join_event(dead, {n}),                                // neighbor range
      join_event(dead, {live, dead2}),                      // dead neighbor
      join_event(dead, {live, dead}),                       // neighbor == a
      join_event(dead, {live, live}),                       // repeated
      join_event(dead, {live, 1, live}),                    // repeated
  };
  const std::vector<std::size_t> counters = counter_values(engine.stats());
  const std::vector<std::vector<NodeId>> topology =
      adjacency(engine.graph().snapshot());
  const Clustering c = engine.clustering();
  const Backbone b = engine.backbone();
  for (std::size_t i = 0; i < rejected.size(); ++i) {
    EXPECT_THROW(engine.apply(rejected[i]), InvalidArgument) << "event " << i;
  }
  EXPECT_EQ(counter_values(engine.stats()), counters);
  EXPECT_EQ(adjacency(engine.graph().snapshot()), topology);
  EXPECT_EQ(engine.clustering().heads, c.heads);
  EXPECT_EQ(engine.clustering().head_of, c.head_of);
  EXPECT_EQ(engine.clustering().dist_to_head, c.dist_to_head);
  EXPECT_EQ(engine.backbone().heads, b.heads);
  EXPECT_EQ(engine.backbone().gateways, b.gateways);
  EXPECT_EQ(engine.backbone().virtual_links, b.virtual_links);
  EXPECT_EQ(engine.audit(), "");
}

TEST(ChurnEngine, SelectNeighborsRejectsEngineClustering) {
  // The engine does not maintain cluster_of, so functions that index it
  // must refuse the engine's clustering instead of reading past its end.
  const Graph g0 = make_network(4306, 40);
  const ChurnEngine engine(g0, 2, Pipeline::kAcLmst);
  const Graph g = engine.graph().snapshot();
  EXPECT_TRUE(engine.clustering().cluster_of.empty());
  EXPECT_THROW(select_neighbors(g, engine.clustering(), NeighborRule::kAdjacent),
               InvalidArgument);
  EXPECT_THROW(
      select_neighbors(g, engine.clustering(), NeighborRule::kAllWithin2k1),
      InvalidArgument);
  ThreadPool pool(2);
  EXPECT_THROW(
      select_neighbors(g, engine.clustering(), NeighborRule::kAdjacent, pool),
      InvalidArgument);
}

TEST(ChurnEngine, GmstOnEngineClusteringMatchesReference) {
  // G-MST indexes heads by their position in heads, never by cluster_of,
  // so it is exact on the engine's clustering, whose cluster_of is cleared
  // after the initial election (its stale buffer must not be read).
  std::vector<std::pair<NodeId, NodeId>> ring;
  for (NodeId v = 0; v < 40; ++v) ring.emplace_back(v, (v + 1) % 40);
  ChurnEngine engine(Graph::from_edges(40, ring), 2, Pipeline::kNcLmst);
  for (const NodeId v : {0u, 1u, 2u}) {
    ChurnEvent e;
    e.type = ChurnEventType::kFail;
    e.a = v;
    engine.apply(e);
  }
  const Graph g = engine.graph().snapshot();
  const Clustering& c = engine.clustering();
  EXPECT_TRUE(c.cluster_of.empty());
  const Backbone want = reference::build_backbone(g, c, Pipeline::kGmst);
  ThreadPool pool(2);
  for (const Backbone& got : {build_backbone(g, c, Pipeline::kGmst),
                              build_backbone(g, c, Pipeline::kGmst, pool)}) {
    EXPECT_EQ(got.heads, want.heads);
    EXPECT_EQ(got.gateways, want.gateways);
    EXPECT_EQ(got.virtual_links, want.virtual_links);
  }
}

// ---------------------------------------------------------------------------
// Section 3.3 maintenance as single engine events. The engine keeps ids
// fixed, so a switch-on first fails a node and then revives it.

bool is_gateway(const ChurnEngine& engine, NodeId v) {
  const std::vector<NodeId>& gw = engine.backbone().gateways;
  return std::binary_search(gw.begin(), gw.end(), v);
}

/// Applies \p e and requires the engine's full audit to pass.
ChurnEventReport apply_audited(ChurnEngine& engine, const ChurnEvent& e) {
  const ChurnEventReport rep = engine.apply(e);
  EXPECT_EQ(engine.audit(), "") << "after the event on node " << e.a;
  return rep;
}

/// True iff every other alive node stays within k hops of its head once
/// \p v fails, i.e. the failure orphans nobody (a BFS per head, independent
/// of the engine's incremental repair).
bool failure_orphans_nobody(const ChurnEngine& engine, NodeId v) {
  const Clustering& c = engine.clustering();
  if (c.head_of[v] == v) return false;
  DynamicGraph g = engine.graph();
  g.remove_node(v);
  const Graph snap = g.snapshot();
  for (NodeId h : c.heads) {
    const BfsTree t = bfs_bounded(snap, h, engine.k());
    for (NodeId w = 0; w < snap.num_nodes(); ++w) {
      if (g.alive(w) && c.head_of[w] == h && t.dist[w] == kUnreachable) {
        return false;
      }
    }
  }
  return true;
}

TEST(Repair, PlainMemberFailureKeepsCds) {
  const Graph g0 = make_network(1102, 100);
  ChurnEngine engine(g0, 2, Pipeline::kAcLmst);
  NodeId victim = kInvalidNode;
  for (NodeId v = 0; v < g0.num_nodes() && victim == kInvalidNode; ++v) {
    if (!is_gateway(engine, v) && failure_orphans_nobody(engine, v)) {
      victim = v;
    }
  }
  ASSERT_NE(victim, kInvalidNode);
  const std::vector<NodeId> heads = engine.clustering().heads;
  const ChurnEventReport rep = apply_audited(engine, fail_event(victim));
  EXPECT_EQ(rep.orphans, 0u);
  EXPECT_EQ(rep.new_heads, 0u);
  EXPECT_EQ(engine.clustering().heads, heads);
}

TEST(Repair, GatewayFailureRebuildsValidBackbone) {
  const Graph g0 = make_network(1103, 100);
  ChurnEngine engine(g0, 2, Pipeline::kAcLmst);
  ASSERT_FALSE(engine.backbone().gateways.empty());
  const NodeId victim = engine.backbone().gateways.front();
  const std::vector<NodeId> heads = engine.clustering().heads;
  const ChurnEventReport rep = apply_audited(engine, fail_event(victim));
  EXPECT_FALSE(is_gateway(engine, victim));
  // The heads whose links ran through the gateway re-ran their selection.
  EXPECT_GE(rep.heads_resweeped, 1u);
  for (NodeId h : heads) EXPECT_TRUE(engine.clustering().is_head(h)) << h;
}

TEST(Repair, ClusterheadFailureReclustersOrphans) {
  const Graph g0 = make_network(1104, 100);
  ChurnEngine engine(g0, 2, Pipeline::kAcLmst);
  const std::vector<NodeId> heads = engine.clustering().heads;
  const NodeId victim = heads[heads.size() / 2];
  const std::vector<NodeId>& head_of = engine.clustering().head_of;
  const auto size = static_cast<std::size_t>(
      std::count(head_of.begin(), head_of.end(), victim));
  const ChurnEventReport rep = apply_audited(engine, fail_event(victim));
  EXPECT_GE(rep.orphans, size - 1);
  // Every surviving head is kept as-is; every orphan found a live head.
  for (NodeId h : heads) {
    EXPECT_EQ(engine.clustering().is_head(h), h != victim) << h;
  }
  for (NodeId v : engine.graph().alive_nodes()) {
    const NodeId h = engine.clustering().head_of[v];
    ASSERT_NE(h, kInvalidNode);
    EXPECT_TRUE(engine.graph().alive(h));
  }
}

TEST(Repair, RepairedDominationMostlyHolds) {
  // After a head failure every survivor is re-dominated within k: orphans
  // join a surviving head within k or elect new heads.
  const Graph g0 = make_network(1105, 100);
  ChurnEngine engine(g0, 2, Pipeline::kAcLmst);
  apply_audited(engine, fail_event(engine.clustering().heads.back()));
  for (NodeId v : engine.graph().alive_nodes()) {
    EXPECT_LE(engine.clustering().dist_to_head[v], engine.k()) << v;
  }
}

TEST(Repair, AllFailureClassesAcrossManyNodes) {
  // Every node fails once, each on a fresh engine; cut vertices included.
  const Graph g0 = make_network(1106, 80);
  std::size_t heads = 0, gateways = 0, members = 0;
  for (NodeId v = 0; v < g0.num_nodes(); ++v) {
    ChurnEngine engine(g0, 2, Pipeline::kAcLmst);
    if (engine.clustering().is_head(v)) {
      ++heads;
    } else if (is_gateway(engine, v)) {
      ++gateways;
    } else {
      ++members;
    }
    apply_audited(engine, fail_event(v));
  }
  EXPECT_GT(heads, 0u);
  EXPECT_GT(gateways, 0u);
  EXPECT_GT(members, 0u);
}

TEST(Repair, DisconnectingFailureIsReported) {
  // Path graph: the middle node is a cut vertex.
  const Graph g = Graph::from_edges(
      3, std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {1, 2}});
  ChurnEngine engine(g, 1, Pipeline::kAcLmst);
  const ChurnEventReport rep = apply_audited(engine, fail_event(1));
  EXPECT_EQ(rep.component_delta, 1);
  EXPECT_EQ(engine.num_components(), 2u);
  // The repair still runs: both singleton components end up headed.
  EXPECT_EQ(engine.clustering().heads, (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(engine.clustering().dist_to_head[0], 0u);
  EXPECT_EQ(engine.clustering().dist_to_head[2], 0u);
}

TEST(Repair, PartitionRepairsEachComponent) {
  // Two 5-node paths bridged by node 10; k = 2. Removing the bridge
  // partitions the network into two components, each of which must keep a
  // valid dominated clustering and backbone.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v + 1 < 5; ++v) {
    edges.push_back({v, v + 1});
    edges.push_back({static_cast<NodeId>(5 + v), static_cast<NodeId>(6 + v)});
  }
  edges.push_back({4, 10});
  edges.push_back({10, 5});
  const Graph g = Graph::from_edges(11, edges);
  ChurnEngine engine(g, 2, Pipeline::kAcLmst);
  const ChurnEventReport rep = apply_audited(engine, fail_event(10));
  EXPECT_EQ(rep.component_delta, 1);
  EXPECT_EQ(engine.num_components(), 2u);
  // Every survivor's head lies on the survivor's side of the cut.
  for (NodeId v = 0; v < 10; ++v) {
    const NodeId h = engine.clustering().head_of[v];
    ASSERT_NE(h, kInvalidNode);
    EXPECT_LE(engine.clustering().dist_to_head[v], 2u);
    EXPECT_EQ(h < 5, v < 5) << v;
  }
}

TEST(Repair, RejectsBadVictim) {
  const Graph g0 = make_network(1107, 50);
  ChurnEngine engine(g0, 1, Pipeline::kAcLmst);
  EXPECT_THROW(engine.apply(fail_event(9999)), InvalidArgument);
  EXPECT_EQ(engine.stats().events, 0u);
}

TEST(Join, MemberJoinAdoptsNearestHead) {
  const Graph g0 = make_network(1401, 90);
  ChurnEngine engine(g0, 2, Pipeline::kAcLmst);
  const NodeId head = engine.clustering().heads.front();
  // A member of another cluster switches off, then on next to the head.
  NodeId x = kInvalidNode;
  for (NodeId v = 0; v < g0.num_nodes(); ++v) {
    const NodeId h = engine.clustering().head_of[v];
    if (h != v && h != head) x = v;
  }
  ASSERT_NE(x, kInvalidNode);
  apply_audited(engine, fail_event(x));
  const ChurnEventReport rep = apply_audited(engine, join_event(x, {head}));
  EXPECT_EQ(rep.new_heads, 0u);
  EXPECT_EQ(engine.clustering().head_of[x], head);
  EXPECT_EQ(engine.clustering().dist_to_head[x], 1u);
}

TEST(Join, HeadOnlyWhenBeyondK) {
  // Path 0-1-2-3-4 with k = 1 elects heads {0, 2, 4}. Node 4 switches off,
  // then on again attached to node 3 only: it is 2 > k hops from head 2, so
  // it must become a head itself.
  const Graph g = Graph::from_edges(
      5, std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  ChurnEngine engine(g, 1, Pipeline::kAcLmst);
  ASSERT_EQ(engine.clustering().heads, (std::vector<NodeId>{0, 2, 4}));
  apply_audited(engine, fail_event(4));
  const ChurnEventReport rep = apply_audited(engine, join_event(4, {3}));
  EXPECT_EQ(rep.new_heads, 1u);
  EXPECT_TRUE(engine.clustering().is_head(4));
  // A new head is part of the backbone.
  const std::vector<NodeId>& bh = engine.backbone().heads;
  EXPECT_TRUE(std::binary_search(bh.begin(), bh.end(), NodeId{4}));
}

TEST(Join, PreservesIndependentSetInvariant) {
  const Graph g0 = make_network(1403, 90);
  const NodeId x = static_cast<NodeId>(g0.num_nodes() - 1);
  for (const NodeId anchor : {NodeId{0}, NodeId{5}, NodeId{10}}) {
    ChurnEngine engine(g0, 2, Pipeline::kAcLmst);
    apply_audited(engine, fail_event(x));
    apply_audited(engine, join_event(x, {anchor}));
    // Whatever the outcome, heads stay a k-hop independent set.
    const auto d = all_pairs_hops(engine.graph().snapshot());
    const std::vector<NodeId>& heads = engine.clustering().heads;
    for (std::size_t i = 0; i < heads.size(); ++i) {
      for (std::size_t j = i + 1; j < heads.size(); ++j) {
        EXPECT_GT(d[heads[i]][heads[j]], engine.k());
      }
    }
  }
}

TEST(Join, MemberJoinWithoutNewAdjacencyKeepsBackbone) {
  // A node switches on next to a head and one of the head's own members,
  // which are adjacent: no new cluster adjacency and no shorter path
  // appear, so the backbone stays as it was.
  const Graph g0 = make_network(1404, 90);
  ChurnEngine engine(g0, 2, Pipeline::kAcLmst);
  const NodeId head = engine.clustering().heads.front();
  NodeId nb = kInvalidNode;
  for (NodeId w : g0.neighbors(head)) {
    if (engine.clustering().head_of[w] == head) {
      nb = w;
      break;
    }
  }
  ASSERT_NE(nb, kInvalidNode);
  NodeId x = kInvalidNode;
  for (NodeId v = 0; v < g0.num_nodes(); ++v) {
    if (!engine.clustering().is_head(v) && v != nb) x = v;
  }
  apply_audited(engine, fail_event(x));
  const Backbone before = engine.backbone();
  const ChurnEventReport rep =
      apply_audited(engine, join_event(x, {head, nb}));
  EXPECT_EQ(rep.new_heads, 0u);
  EXPECT_EQ(engine.clustering().head_of[x], head);
  EXPECT_EQ(engine.backbone().gateways, before.gateways);
  EXPECT_EQ(engine.backbone().virtual_links, before.virtual_links);
}

TEST(Join, BridgingJoinTriggersPhase2) {
  // A node switches on between two clusters: the heads around it re-run
  // their neighbor selection.
  const Graph g0 = make_network(1405, 90);
  ChurnEngine engine(g0, 2, Pipeline::kAcLmst);
  const NodeId x = static_cast<NodeId>(g0.num_nodes() - 1);
  apply_audited(engine, fail_event(x));
  const std::vector<NodeId>& head_of = engine.clustering().head_of;
  const NodeId a = 0;
  NodeId b = kInvalidNode;
  for (NodeId v = 1; v < x && b == kInvalidNode; ++v) {
    if (head_of[v] != head_of[a]) b = v;
  }
  ASSERT_NE(b, kInvalidNode);
  const ChurnEventReport rep = apply_audited(engine, join_event(x, {a, b}));
  EXPECT_GE(rep.heads_resweeped, 1u);
}

TEST(Join, RejectsBadInput) {
  const Graph g0 = make_network(1406, 50);
  ChurnEngine engine(g0, 1, Pipeline::kAcLmst);
  apply_audited(engine, fail_event(7));
  apply_audited(engine, fail_event(8));
  EXPECT_THROW(engine.apply(join_event(7, {9999})), InvalidArgument);
  EXPECT_THROW(engine.apply(join_event(7, {8})), InvalidArgument);  // dead
  // An empty neighbor list is a valid join: the node switches on isolated,
  // forms its own component and heads it.
  const std::size_t components = engine.num_components();
  const ChurnEventReport rep = apply_audited(engine, join_event(7, {}));
  EXPECT_EQ(rep.component_delta, 1);
  EXPECT_EQ(engine.num_components(), components + 1);
  EXPECT_TRUE(engine.clustering().is_head(7));
}

TEST(Join, SequenceOfJoinsStaysValid) {
  const Graph g0 = make_network(1407, 60);
  ChurnEngine engine(g0, 2, Pipeline::kAcLmst);
  Rng rng(8);
  for (int i = 0; i < 10; ++i) {
    const auto x = static_cast<NodeId>(rng.uniform_int(g0.num_nodes()));
    apply_audited(engine, fail_event(x));
    const std::vector<NodeId> alive = engine.graph().alive_nodes();
    const NodeId anchor = alive[rng.uniform_int(alive.size())];
    apply_audited(engine, join_event(x, {anchor}));
  }
  EXPECT_EQ(engine.graph().num_alive(), 60u);
  EXPECT_EQ(engine.stats().joins, 10u);
}

// Failure-injection properties over (k, pipeline, seed): every failure, and
// a failure followed by a switch-on, leaves an audited engine whose
// clustering equals the full-recompute reference's. ChurnEngine keeps no
// G-MST backbone (a global MST is not a local repair), so the G-MST column
// maintains the clustering under NC-LMST and checks the G-MST repair the
// way it is defined: a from-scratch global MST over the repaired heads.
using FailureParam = std::tuple<Hops, Pipeline, std::uint64_t>;

class FailureProperty : public ::testing::TestWithParam<FailureParam> {
 protected:
  void SetUp() override { g0_ = make_network(std::get<2>(GetParam()), 90); }

  static Pipeline engine_pipeline(Pipeline p) {
    return p == Pipeline::kGmst ? Pipeline::kNcLmst : p;
  }

  /// Applies \p e to both maintainers; the engine must pass its audit and
  /// agree with the reference. Under G-MST, the reference's from-scratch
  /// backbone must also be valid while the survivors stay connected.
  static void apply_checked(ChurnEngine& engine, ReferenceChurnMaintainer& ref,
                            Pipeline pipeline, const ChurnEvent& e) {
    apply_audited(engine, e);
    ref.apply(e);
    EXPECT_EQ(engine.clustering().head_of, ref.head_of())
        << "after the event on node " << e.a;
    if (pipeline == Pipeline::kGmst && engine.num_components() == 1) {
      EXPECT_EQ(validate_backbone(ref.graph().snapshot(),
                                  ref.rebuild_backbone()),
                "")
          << "after the event on node " << e.a;
    }
  }

  Graph g0_;
};

TEST_P(FailureProperty, EveryRepairableFailureValidates) {
  const auto [k, pipeline, seed] = GetParam();
  Rng rng(seed ^ 0xfa11);
  for (int i = 0; i < 12; ++i) {
    const auto victim = static_cast<NodeId>(rng.uniform_int(g0_.num_nodes()));
    ChurnEngine engine(g0_, k, engine_pipeline(pipeline));
    ReferenceChurnMaintainer ref(g0_, k, pipeline);
    apply_checked(engine, ref, pipeline, fail_event(victim));
    // Membership stays total and heads stay heads-of-themselves.
    for (NodeId v : engine.graph().alive_nodes()) {
      EXPECT_NE(engine.clustering().head_of[v], kInvalidNode);
    }
    for (NodeId h : engine.clustering().heads) {
      EXPECT_EQ(engine.clustering().head_of[h], h);
    }
  }
}

TEST_P(FailureProperty, FailureThenJoinStaysValid) {
  const auto [k, pipeline, seed] = GetParam();
  Rng rng(seed ^ 0x7015);
  ChurnEngine engine(g0_, k, engine_pipeline(pipeline));
  ReferenceChurnMaintainer ref(g0_, k, pipeline);
  const auto victim = static_cast<NodeId>(rng.uniform_int(g0_.num_nodes()));
  apply_checked(engine, ref, pipeline, fail_event(victim));
  NodeId anchor = victim;
  while (anchor == victim) {
    anchor = static_cast<NodeId>(rng.uniform_int(g0_.num_nodes()));
  }
  apply_checked(engine, ref, pipeline, join_event(victim, {anchor}));
}

std::string failure_param_name(
    const ::testing::TestParamInfo<FailureParam>& info) {
  const auto [k, pipeline, seed] = info.param;
  std::string name = "k" + std::to_string(k) + "_" +
                     std::string(pipeline_name(pipeline)) + "_s" +
                     std::to_string(seed);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FailureProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(Pipeline::kNcMesh,
                                         Pipeline::kAcLmst, Pipeline::kGmst),
                       ::testing::Values(41u, 42u)),
    failure_param_name);

// ---------------------------------------------------------------------------
// Mobility-driven churn

TEST(Mobility, DiffTopologyFindsFlips) {
  const Graph before = Graph::from_edges(
      4, std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {1, 2}, {2, 3}});
  const Graph after = Graph::from_edges(
      4, std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {1, 3}, {2, 3}});
  const std::vector<LinkFlip> flips = diff_topology(before, after);
  ASSERT_EQ(flips.size(), 2u);
  EXPECT_EQ(flips[0].u, 1u);
  EXPECT_EQ(flips[0].v, 2u);
  EXPECT_FALSE(flips[0].up);
  EXPECT_EQ(flips[1].u, 1u);
  EXPECT_EQ(flips[1].v, 3u);
  EXPECT_TRUE(flips[1].up);
}

TEST(Mobility, WaypointFlipsDriveEngine) {
  GeneratorConfig gcfg;
  gcfg.num_nodes = 60;
  gcfg.target_degree = 10.0;
  Rng rng(8801);
  AdHocNetwork net = generate_network(gcfg, rng);
  ChurnEngine engine(net.graph, 2, Pipeline::kAcMesh);

  RandomWaypointConfig mcfg;
  mcfg.min_speed = 2.0;
  mcfg.max_speed = 6.0;
  RandomWaypointModel model(mcfg, net.num_nodes(), net.field, rng);
  std::size_t flips_applied = 0;
  for (int tick = 0; tick < 6; ++tick) {
    const Graph before = net.graph;
    model.step(net, rng);
    net.rebuild_graph();
    for (const LinkFlip& f : diff_topology(before, net.graph)) {
      ChurnEvent e;
      e.type = f.up ? ChurnEventType::kLinkUp : ChurnEventType::kLinkDown;
      e.a = f.u;
      e.b = f.v;
      engine.apply(e);
      ++flips_applied;
    }
    ASSERT_EQ(engine.audit(), "") << "after tick " << tick;
  }
  EXPECT_GT(flips_applied, 0u);
  EXPECT_EQ(engine.stats().full_rebuilds, 0u);
}

}  // namespace
}  // namespace khop
