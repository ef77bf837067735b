// At-scale bit-exactness for the PR 4 backbone overhaul (`slow` ctest
// label): all five paper pipelines, fused serial AND parallel across thread
// counts {1, 2, hardware}, against the preserved reference pipeline on a
// four-digit-node topology. This is the acceptance gate for the fused
// bounded-sweep construction.
#include <gtest/gtest.h>

#include <vector>

#include "khop/gateway/backbone.hpp"
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

}  // namespace
}  // namespace khop
