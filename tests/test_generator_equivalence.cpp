// generate_network checked against the attempt loop it replaced, kept here
// as a test-only oracle: every placement became a streamed CSR and paid an
// is_connected search. The connectivity-first loop must draw the same
// placements, accept the same one and emit the same CSR rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "khop/common/error.hpp"
#include "khop/common/rng.hpp"
#include "khop/exp/experiment.hpp"
#include "khop/geom/placement.hpp"
#include "khop/graph/components.hpp"
#include "khop/graph/spatial_grid.hpp"
#include "khop/net/generator.hpp"
#include "khop/runtime/workspace.hpp"

namespace khop {
namespace {

// ---------------------------------------------------------------------------
// The oracle: the build-then-check attempt loop, for an explicit radius.

AdHocNetwork legacy_generate_network(const GeneratorConfig& cfg, Rng& rng) {
  const double radius = *cfg.explicit_radius;
  SpatialGrid grid;
  AdHocNetwork net;
  net.field = cfg.field;
  net.radius = radius;
  net.requested_nodes = cfg.num_nodes;

  for (std::size_t attempt = 1; attempt <= cfg.max_placement_attempts;
       ++attempt) {
    net.positions = place_uniform(cfg.num_nodes, cfg.field, rng);
    net.graph = build_unit_disk_graph_streamed(net.positions, radius, grid);
    net.placement_attempts = attempt;
    if (is_connected(net.graph)) {
      net.connectivity = attempt == 1
                             ? ConnectivityOutcome::kConnectedFirstTry
                             : ConnectivityOutcome::kConnectedAfterRetry;
      return net;
    }
  }

  if (!cfg.allow_lcc_fallback) {
    throw NotConnected(
        "generate_network: no connected placement within attempt budget");
  }
  const LargestComponent lc = largest_component(net.graph);
  std::vector<Point2> kept;
  kept.reserve(lc.original_ids.size());
  for (NodeId old_id : lc.original_ids) kept.push_back(net.positions[old_id]);
  net.positions = std::move(kept);
  net.graph = build_unit_disk_graph_streamed(net.positions, radius, grid);
  net.connectivity = ConnectivityOutcome::kLargestComponent;
  return net;
}

// ---------------------------------------------------------------------------

void expect_same_network(const AdHocNetwork& got, const AdHocNetwork& want,
                         const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.positions, want.positions);
  EXPECT_EQ(got.placement_attempts, want.placement_attempts);
  EXPECT_EQ(got.connectivity, want.connectivity);
  EXPECT_EQ(got.radius, want.radius);
  EXPECT_EQ(got.requested_nodes, want.requested_nodes);
  ASSERT_EQ(got.graph.num_nodes(), want.graph.num_nodes());
  EXPECT_EQ(got.graph.num_edges(), want.graph.num_edges());
  for (NodeId u = 0; u < want.graph.num_nodes(); ++u) {
    const auto a = got.graph.neighbors(u);
    const auto b = want.graph.neighbors(u);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "row " << u << " differs";
  }
}

/// Runs the oracle and generate_network, on \p ws and on the thread's
/// default workspace, from one seed and compares networks and the draws
/// each left in its generator. Returns the oracle's placement attempts.
std::size_t expect_all_equal(const GeneratorConfig& cfg, std::uint64_t seed,
                             Workspace& ws) {
  Rng r_want(seed), r_ws(seed), r_tls(seed);
  const AdHocNetwork want = legacy_generate_network(cfg, r_want);
  expect_same_network(generate_network(cfg, r_ws, ws), want, "workspace");
  expect_same_network(generate_network(cfg, r_tls), want, "plain");
  const auto next = r_want();
  EXPECT_EQ(r_ws(), next);
  EXPECT_EQ(r_tls(), next);
  return want.placement_attempts;
}

TEST(GeneratorEquivalence, PaperGridMatchesBuildThenCheckLoop) {
  // The paper's Fig. 5/6 grid at its calibrated radii; one workspace
  // carried across every call, as the Monte-Carlo trial loop does.
  Workspace ws;
  std::size_t retried = 0;
  for (const double degree : {6.0, 10.0}) {
    for (const std::size_t n : {50u, 100u, 150u, 200u}) {
      ExperimentConfig cal;
      cal.num_nodes = n;
      cal.avg_degree = degree;
      GeneratorConfig cfg;
      cfg.num_nodes = n;
      cfg.explicit_radius = resolve_radius(cal, 17);
      for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        SCOPED_TRACE(testing::Message() << "D=" << degree << " N=" << n
                                        << " seed=" << seed);
        retried += expect_all_equal(cfg, seed * 7919 + n, ws) > 1;
      }
    }
  }
  EXPECT_GT(retried, 0u) << "no rejected placement was exercised";
}

TEST(GeneratorEquivalence, LargestComponentFallbackMatches) {
  // Sparse enough that three placements are never connected.
  Workspace ws;
  GeneratorConfig cfg;
  cfg.num_nodes = 120;
  cfg.explicit_radius = 7.0;
  cfg.max_placement_attempts = 3;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    expect_all_equal(cfg, seed, ws);
    Rng rng(seed);
    const AdHocNetwork net = generate_network(cfg, rng, ws);
    EXPECT_EQ(net.connectivity, ConnectivityOutcome::kLargestComponent);
    EXPECT_EQ(net.placement_attempts, 3u);
    EXPECT_LT(net.num_nodes(), cfg.num_nodes);
    EXPECT_TRUE(is_connected(net.graph));
  }
}

TEST(GeneratorEquivalence, NotConnectedWithoutFallback) {
  Workspace ws;
  GeneratorConfig cfg;
  cfg.num_nodes = 120;
  cfg.explicit_radius = 7.0;
  cfg.max_placement_attempts = 3;
  cfg.allow_lcc_fallback = false;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng r_want(seed), r_ws(seed), r_tls(seed);
    EXPECT_THROW(legacy_generate_network(cfg, r_want), NotConnected);
    EXPECT_THROW(generate_network(cfg, r_ws, ws), NotConnected);
    EXPECT_THROW(generate_network(cfg, r_tls), NotConnected);
    const auto next = r_want();
    EXPECT_EQ(r_ws(), next);
    EXPECT_EQ(r_tls(), next);
  }
}

TEST(GeneratorEquivalence, UpperRowsBuildMatchesStreamedBuild) {
  // The walk's verdict on connected and disconnected point sets alike, and
  // the build from its rows whenever it accepts.
  Workspace ws;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const double radius : {12.0, 20.0, 45.0}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      Rng rng(seed);
      const auto pts = place_uniform(150, Field{100.0}, rng);
      const Graph want = build_unit_disk_graph_streamed(pts, radius, ws.grid);
      ws.grid.rebuild(pts, radius);
      const bool connected = ws.grid.connected_upper_rows(ws.uf, ws.upper_rows);
      EXPECT_EQ(connected, is_connected(want)) << "r=" << radius;
      ++(connected ? accepted : rejected);
      if (!connected) continue;
      const Graph got = graph_from_upper_rows(ws.upper_rows);
      ASSERT_EQ(got.num_nodes(), want.num_nodes());
      EXPECT_EQ(got.edge_list(), want.edge_list()) << "r=" << radius;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(GeneratorEquivalence, PlaceUniformIntoReusesBufferWithSameDraws) {
  Rng a(5), b(5);
  std::vector<Point2> pts(7);  // resized, not appended to
  place_uniform_into(40, Field{100.0}, a, pts);
  EXPECT_EQ(pts, place_uniform(40, Field{100.0}, b));
  EXPECT_EQ(a(), b());
}

}  // namespace
}  // namespace khop
