// Larger-n engine equivalence (slow ctest label): the receiver-batched
// SyncEngine and its ThreadPool executor against the preserved pre-PR5
// engine at n ~ 1500, ideal and lossy, thread counts {1, 2, hardware}, plus
// the protocol stack (distributed clustering, then the AC-LMST gateway
// election) on the pool against the serial run. Companion to
// tests/test_engine_equivalence.cpp at CI-fast sizes.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "khop/cluster/priority.hpp"
#include "khop/net/generator.hpp"
#include "khop/radio/delivery.hpp"
#include "khop/runtime/thread_pool.hpp"
#include "khop/sim/engine.hpp"
#include "khop/sim/protocols/clustering_protocol.hpp"
#include "khop/sim/protocols/gateway_protocol.hpp"
#include "khop/sim/protocols/neighborhood.hpp"
#include "oracles/sim_reference.hpp"

namespace khop {
namespace {

Graph random_topology(std::size_t n, double degree, std::uint64_t seed) {
  GeneratorConfig gen;
  gen.num_nodes = n;
  gen.target_degree = degree;
  Rng rng(seed);
  return generate_network(gen, rng).graph;
}

bool same_stats(const SimStats& a, const SimStats& b) {
  return a.rounds == b.rounds && a.transmissions == b.transmissions &&
         a.receptions == b.receptions && a.payload_words == b.payload_words &&
         a.drops == b.drops && a.retransmissions == b.retransmissions;
}

/// Variant-independent digest of one node's discovery result.
double known_digest(const NeighborhoodDiscoveryAgent& agent) {
  double sum = 0.0;
  agent.known().for_each([&](NodeId origin, const KnownRecord& rec) {
    sum += origin + 31.0 * rec.dist + 7.0 * rec.parent;
  });
  return sum;
}

TEST(EngineEquivalenceSlow, DiscoveryFloodMatchesReferenceAtScale) {
  const Graph g = random_topology(1500, 7.0, 7001);
  const Hops k = 2;

  reference::SyncEngine ref_engine(g, [&](NodeId) {
    return std::make_unique<reference::NeighborhoodDiscoveryAgent>(k);
  });
  ASSERT_TRUE(ref_engine.run(2 * k + 2));

  // Reference per-node digests, computed once.
  std::vector<double> want(g.num_nodes(), 0.0);
  std::vector<std::size_t> want_size(g.num_nodes(), 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& a = dynamic_cast<const reference::NeighborhoodDiscoveryAgent&>(
        ref_engine.agent(v));
    want_size[v] = a.known().size();
    for (const auto& [origin, rec] : a.known()) {
      want[v] += origin + 31.0 * rec.dist + 7.0 * rec.parent;
    }
  }

  const auto check = [&](SyncEngine& engine, const char* label) {
    EXPECT_TRUE(same_stats(engine.stats(), ref_engine.stats())) << label;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto& a =
          dynamic_cast<const NeighborhoodDiscoveryAgent&>(engine.agent(v));
      ASSERT_EQ(a.known().size(), want_size[v]) << label << " node " << v;
      ASSERT_EQ(known_digest(a), want[v]) << label << " node " << v;
    }
  };

  const auto factory = [&](NodeId) {
    return std::make_unique<NeighborhoodDiscoveryAgent>(k);
  };

  SyncEngine serial(g, factory);
  ASSERT_TRUE(serial.run(2 * k + 2));
  check(serial, "serial");

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
    ThreadPool pool(threads);
    SyncEngine parallel(g, factory);
    ASSERT_TRUE(parallel.run(2 * k + 2, pool));
    check(parallel, threads == 0 ? "hardware" : (threads == 1 ? "1t" : "2t"));
  }
}

TEST(EngineEquivalenceSlow, LossyFloodMatchesReferenceAtScale) {
  const Graph g = random_topology(1200, 6.0, 7002);
  const Hops k = 2;

  const auto run_ref = [&] {
    UniformLossDelivery model(0.25, 5150);
    DeliveryOptions opts;
    opts.model = &model;
    opts.retry_budget = 1;
    reference::SyncEngine engine(
        g,
        [&](NodeId) {
          return std::make_unique<reference::NeighborhoodDiscoveryAgent>(k);
        },
        opts);
    engine.run(2 * k + 2);
    double digest = 0.0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto& a =
          dynamic_cast<const reference::NeighborhoodDiscoveryAgent&>(
              engine.agent(v));
      for (const auto& [origin, rec] : a.known()) {
        digest += origin + 31.0 * rec.dist + 7.0 * rec.parent;
      }
    }
    return std::pair(engine.stats(), digest);
  };
  const auto [want_stats, want_digest] = run_ref();
  ASSERT_GT(want_stats.drops, 0u);

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
    UniformLossDelivery model(0.25, 5150);
    DeliveryOptions opts;
    opts.model = &model;
    opts.retry_budget = 1;
    SyncEngine engine(
        g,
        [&](NodeId) { return std::make_unique<NeighborhoodDiscoveryAgent>(k); },
        opts);
    ThreadPool pool(threads);
    engine.run(2 * k + 2, pool);
    EXPECT_TRUE(same_stats(engine.stats(), want_stats))
        << "threads " << threads;
    double digest = 0.0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      digest += known_digest(
          dynamic_cast<const NeighborhoodDiscoveryAgent&>(engine.agent(v)));
    }
    EXPECT_EQ(digest, want_digest) << "threads " << threads;
  }
}

TEST(EngineEquivalenceSlow, ClusteringAndGatewayElectionMatchSerial) {
  const Graph g = random_topology(1500, 7.0, 8003);
  const Hops k = 2;
  const auto prio = make_priorities(g, PriorityRule::kLowestId);
  const std::size_t cluster_rounds =
      3 * static_cast<std::size_t>(k) * (g.num_nodes() + 2) + 16;

  const auto cluster_factory = [&](NodeId v) {
    return std::make_unique<DistributedClusteringAgent>(
        k, prio[v], AffiliationRule::kDistanceBased);
  };

  // Serial baseline: clustering, then the gateway election seeded from its
  // result.
  SyncEngine serial(g, cluster_factory);
  ASSERT_TRUE(serial.run(cluster_rounds));
  std::vector<NodeId> want_head(g.num_nodes());
  std::vector<Hops> want_dist(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& a =
        dynamic_cast<const DistributedClusteringAgent&>(serial.agent(v));
    want_head[v] = a.head();
    want_dist[v] = a.dist_to_head();
  }

  const auto gateway_factory = [&](NodeId v) {
    return std::make_unique<LmstGatewayAgent>(k, want_head[v], want_dist[v]);
  };
  const std::size_t gateway_rounds = 16 * static_cast<std::size_t>(k) + 32;
  SyncEngine serial_gw(g, gateway_factory);
  ASSERT_TRUE(serial_gw.run(gateway_rounds));
  std::vector<bool> want_gateway(g.num_nodes());
  std::set<std::pair<NodeId, NodeId>> want_links;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& a = dynamic_cast<const LmstGatewayAgent&>(serial_gw.agent(v));
    want_gateway[v] = a.marked_gateway();
    want_links.insert(a.kept_links().begin(), a.kept_links().end());
  }

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
    ThreadPool pool(threads);

    SyncEngine cluster(g, cluster_factory);
    ASSERT_TRUE(cluster.run(cluster_rounds, pool));
    EXPECT_TRUE(same_stats(cluster.stats(), serial.stats()))
        << "threads " << threads;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto& a =
          dynamic_cast<const DistributedClusteringAgent&>(cluster.agent(v));
      ASSERT_EQ(a.head(), want_head[v])
          << "threads " << threads << " node " << v;
      ASSERT_EQ(a.dist_to_head(), want_dist[v])
          << "threads " << threads << " node " << v;
    }

    SyncEngine gw(g, gateway_factory);
    ASSERT_TRUE(gw.run(gateway_rounds, pool));
    EXPECT_TRUE(same_stats(gw.stats(), serial_gw.stats()))
        << "threads " << threads;
    std::set<std::pair<NodeId, NodeId>> links;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto& a = dynamic_cast<const LmstGatewayAgent&>(gw.agent(v));
      ASSERT_EQ(a.marked_gateway(), want_gateway[v])
          << "threads " << threads << " node " << v;
      links.insert(a.kept_links().begin(), a.kept_links().end());
    }
    EXPECT_EQ(links, want_links) << "threads " << threads;
  }
}

}  // namespace
}  // namespace khop
