// Churn subsystem tests: DynamicGraph, trace generation, and the incremental
// engine checked bit-exact against the naive full-recompute reference after
// every event.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "khop/common/error.hpp"
#include "khop/dynamic/churn_engine.hpp"
#include "khop/dynamic/churn_reference.hpp"
#include "khop/dynamic/churn_trace.hpp"
#include "khop/gateway/lmst.hpp"
#include "khop/gateway/virtual_link.hpp"
#include "khop/graph/dynamic_graph.hpp"
#include "khop/net/generator.hpp"
#include "khop/net/mobility.hpp"

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
}

// ---------------------------------------------------------------------------
// VirtualLinkMap incremental mutators

TEST(VirtualLinkMap, InsertAndErase) {
  VirtualLinkMap m = VirtualLinkMap::from_links({});
  m.insert({1, 5, 2, {1, 3, 5}});
  m.insert({2, 5, 1, {2, 5}});
  EXPECT_TRUE(m.contains(5, 1));
  EXPECT_EQ(m.link(1, 5).hops, 2u);

  m.insert({1, 5, 3, {1, 0, 4, 5}});  // upsert replaces the path
  EXPECT_EQ(m.link(1, 5).hops, 3u);
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
