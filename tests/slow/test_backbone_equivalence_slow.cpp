// At-scale bit-exactness for the PR 4 backbone overhaul (`slow` ctest
// label): all five paper pipelines, fused serial AND parallel across thread
// counts {1, 2, hardware}, against the preserved reference pipeline on a
// four-digit-node topology. This is the acceptance gate for the fused
// bounded-sweep construction. Plus the allocation budget of a warm pooled
// AC-LMST build (bench harness alloc_count): O(heads), not O(pairs).
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <numeric>
#include <vector>

#include "harness/harness.hpp"
#include "khop/gateway/backbone.hpp"
#include "khop/graph/components.hpp"
#include "khop/graph/spatial_grid.hpp"
#include "khop/nbr/neighbor_rules.hpp"
#include "khop/net/generator.hpp"
#include "khop/runtime/thread_pool.hpp"
#include "khop/runtime/workspace.hpp"
#include "oracles/gateway_reference.hpp"

namespace khop {
namespace {

Graph random_topology(std::size_t n, double degree, std::uint64_t seed) {
  GeneratorConfig gen;
  gen.num_nodes = n;
  gen.target_degree = degree;
  Rng rng(seed);
  return generate_network(gen, rng).graph;
}

void expect_backbone_eq(const Backbone& got, const Backbone& want,
                        const char* what) {
  EXPECT_EQ(got.heads, want.heads) << what;
  EXPECT_EQ(got.gateways, want.gateways) << what;
  EXPECT_EQ(got.virtual_links, want.virtual_links) << what;
}

TEST(BackboneEquivalenceSlow, AllPipelinesAllThreadCountsAtScale) {
  const Graph g = random_topology(1500, 7.0, 98);
  Workspace ws;
  // 0 selects hardware_concurrency (see ThreadPool).
  for (Hops k = 2; k <= 3; ++k) {
    const Clustering c = khop_clustering(g, k);
    for (const Pipeline p : kAllPipelines) {
      const Backbone want = reference::build_backbone(g, c, p);
      expect_backbone_eq(build_backbone(g, c, p, ws), want, "serial");
      for (const std::size_t threads : {1u, 2u, 0u}) {
        ThreadPool pool(threads);
        expect_backbone_eq(build_backbone(g, c, p, pool), want, "parallel");
      }
    }
  }
}

TEST(BackboneEquivalenceSlow, RepeatedWorkspaceReuseStaysExact) {
  // One workspace reused across every pipeline and k must not leak state
  // between builds.
  const Graph g = random_topology(1200, 6.5, 99);
  Workspace ws;
  for (int rep = 0; rep < 2; ++rep) {
    for (Hops k = 1; k <= 2; ++k) {
      const Clustering c = khop_clustering(g, k);
      for (const Pipeline p : kAllPipelines) {
        expect_backbone_eq(build_backbone(g, c, p, ws),
                           reference::build_backbone(g, c, p), "reuse");
      }
    }
  }
}

/// A connected unit-disk graph over a jittered grid with shuffled ids (the
/// static_scale topology in miniature), mean degree about 8.
Graph connected_shuffled_grid(std::size_t n, std::uint64_t seed) {
  const auto cols = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  for (;; ++seed) {
    Rng rng(seed);
    std::vector<std::size_t> cell(n);
    std::iota(cell.begin(), cell.end(), std::size_t{0});
    for (std::size_t i = n; i > 1; --i) {
      std::swap(cell[i - 1], cell[rng.uniform_int(i)]);
    }
    std::vector<Point2> pts(n);
    for (std::size_t i = 0; i < n; ++i) {
      pts[i] = {static_cast<double>(cell[i] % cols) + rng.uniform(),
                static_cast<double>(cell[i] / cols) + rng.uniform()};
    }
    Graph g =
        build_unit_disk_graph(pts, std::sqrt(9.0 / std::numbers::pi));
    if (is_connected(g)) return g;
  }
}

TEST(BackboneAllocsSlow, AcLmstAllocationsScaleWithHeadsNotPairs) {
  // Virtual-link paths live in per-block arenas and A-NCR writes each
  // selection list once, so a warm pooled AC-LMST build allocates about one
  // list per head plus a constant per pool block — not one path, hash node
  // or list regrowth per selected pair.
  const Graph g = connected_shuffled_grid(20000, 2302);
  const Clustering c = khop_clustering(g, 2);
  ThreadPool pool(4);
  const Backbone warm = build_backbone(g, c, Pipeline::kAcLmst, pool);
  const std::uint64_t before = bench::alloc_count();
  const Backbone b = build_backbone(g, c, Pipeline::kAcLmst, pool);
  const std::uint64_t allocs = bench::alloc_count() - before;
  EXPECT_EQ(b.gateways, warm.gateways);

  const std::size_t heads = c.heads.size();
  const std::size_t pairs =
      select_neighbors(g, c, NeighborRule::kAdjacent).head_pairs.size();
  ASSERT_GT(pairs, 2 * heads);
  const std::size_t per_block = 64;
  const std::size_t blocks = 4 * pool.num_threads();
  EXPECT_LE(allocs, 2 * heads + per_block * blocks)
      << heads << " heads, " << pairs << " pairs, " << allocs << " allocs";
}

}  // namespace
}  // namespace khop
