// End-to-end integration tests: full workflows spanning generation,
// clustering, backbone construction, broadcast, churn repair and the
// distributed protocol stack on one network.
#include <gtest/gtest.h>

#include "khop/cds/broadcast.hpp"
#include "khop/core/pipeline.hpp"
#include "khop/dynamic/churn_engine.hpp"
#include "khop/dynamic/rotation.hpp"
#include "khop/exp/experiment.hpp"
#include "khop/graph/components.hpp"
#include "khop/net/generator.hpp"
#include "khop/net/mobility.hpp"
#include "khop/sim/protocols/clustering_protocol.hpp"
#include "khop/sim/protocols/gateway_protocol.hpp"

namespace khop {
namespace {

TEST(Integration, FullDistributedStackEqualsCentralizedPipeline) {
  // The complete distributed story: elect heads by message passing, run
  // A-NCR + LMST gateway marking by message passing, and end up with the
  // exact backbone the one-call centralized API builds.
  GeneratorConfig cfg;
  cfg.num_nodes = 110;
  cfg.target_degree = 8.0;
  Rng rng(3001);
  const AdHocNetwork net = generate_network(cfg, rng);
  const Hops k = 2;

  const auto prio = make_priorities(net.graph, PriorityRule::kLowestId);
  const Clustering dist_clustering = run_distributed_clustering(
      net.graph, k, prio, AffiliationRule::kIdBased);
  const Backbone dist_backbone =
      run_distributed_aclmst(net.graph, dist_clustering);

  PipelineOptions opts;
  opts.k = k;
  const auto central = build_connected_clustering(net, opts);

  EXPECT_EQ(dist_clustering.heads, central.clustering.heads);
  EXPECT_EQ(dist_backbone.gateways, central.backbone.gateways);
  EXPECT_EQ(dist_backbone.virtual_links, central.backbone.virtual_links);
}

TEST(Integration, BackboneSurvivesFailureStorm) {
  // Kill ten random nodes one after another on one churn engine, cut
  // vertices included: every component is repaired in place, and the
  // engine's full audit must pass after each failure.
  GeneratorConfig cfg;
  cfg.num_nodes = 120;
  cfg.target_degree = 10.0;
  Rng rng(3002);
  const AdHocNetwork net = generate_network(cfg, rng);
  ChurnEngine engine(net.graph, 2, Pipeline::kAcLmst);

  for (int i = 0; i < 10; ++i) {
    const std::vector<NodeId> alive = engine.graph().alive_nodes();
    ChurnEvent e;
    e.type = ChurnEventType::kFail;
    e.a = alive[rng.uniform_int(alive.size())];
    engine.apply(e);
    EXPECT_EQ(engine.audit(), "") << "failure " << i << " (node " << e.a << ")";
  }
  EXPECT_EQ(engine.graph().num_alive(), 110u);
  EXPECT_EQ(engine.stats().full_rebuilds, 0u);
}

TEST(Integration, MobilityEpochsKeepPipelineValid) {
  // Move nodes under random waypoint, rebuild the topology every epoch, and
  // run the full pipeline on each snapshot (the paper's re-clustering view
  // of mobility: small k keeps the system combinatorially stable).
  GeneratorConfig cfg;
  cfg.num_nodes = 80;
  cfg.target_degree = 10.0;
  Rng rng(3003);
  AdHocNetwork net = generate_network(cfg, rng);
  RandomWaypointModel model(RandomWaypointConfig{}, net.num_nodes(),
                            net.field, rng);

  std::size_t validated = 0;
  for (int epoch = 0; epoch < 12; ++epoch) {
    for (int t = 0; t < 5; ++t) model.step(net, rng);
    net.rebuild_graph();
    if (!is_connected(net.graph)) continue;  // mobility may split the net
    PipelineOptions opts;
    opts.k = 2;
    const auto r = build_connected_clustering(net, opts);  // validates
    EXPECT_GT(r.cds.size(), 0u);
    ++validated;
  }
  EXPECT_GE(validated, 3u);
}

TEST(Integration, BroadcastSavingsAcrossPipelines) {
  GeneratorConfig cfg;
  cfg.num_nodes = 150;
  Rng rng(3004);
  const AdHocNetwork net = generate_network(cfg, rng);
  const Clustering c = khop_clustering(net.graph, 2);
  const std::size_t blind = blind_flood(net.graph, 0).transmissions;
  for (const Pipeline p : kAllPipelines) {
    const Backbone b = build_backbone(net.graph, c, p);
    const BroadcastResult r = cds_flood(net.graph, c, b, 0);
    EXPECT_TRUE(r.complete) << pipeline_name(p);
    EXPECT_LT(r.transmissions, blind) << pipeline_name(p);
  }
}

TEST(Integration, ExperimentHarnessMatchesDirectPipeline) {
  // One trial of the experiment driver equals running the pieces by hand
  // with the same seed and radius.
  ExperimentConfig cfg;
  cfg.num_nodes = 90;
  cfg.k = 2;
  cfg.pipeline = Pipeline::kAcLmst;
  cfg.radius = resolve_radius(cfg, 42);

  Rng rng_a(4242);
  const TrialResultMetrics m = run_single_trial(cfg, rng_a);

  Rng rng_b(4242);
  GeneratorConfig gen;
  gen.num_nodes = 90;
  gen.explicit_radius = cfg.radius;
  const AdHocNetwork net = generate_network(gen, rng_b);
  const Clustering c = khop_clustering(net.graph, 2);
  const Backbone b = build_backbone(net.graph, c, Pipeline::kAcLmst);

  EXPECT_DOUBLE_EQ(m.clusterheads, static_cast<double>(b.heads.size()));
  EXPECT_DOUBLE_EQ(m.gateways, static_cast<double>(b.gateways.size()));
}

TEST(Integration, RotationPreservesBackboneValidityEachEpoch) {
  GeneratorConfig cfg;
  cfg.num_nodes = 70;
  cfg.target_degree = 8.0;
  Rng rng(3005);
  const AdHocNetwork net = generate_network(cfg, rng);

  RotationConfig rot;
  rot.max_epochs = 8;
  rot.energy.initial = 100.0;
  Rng rot_rng(5);
  const RotationResult r = run_rotation(net, rot, rot_rng);
  ASSERT_EQ(r.epochs.size(), 8u);
  for (const auto& e : r.epochs) {
    EXPECT_GT(e.heads, 0u);
    EXPECT_EQ(e.alive, net.num_nodes());  // plenty of energy for 8 epochs
  }
}

}  // namespace
}  // namespace khop
