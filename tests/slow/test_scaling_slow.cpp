// Larger-topology equivalence checks and bench-harness end-to-end smoke.
// These carry the `slow` ctest label: CI's main job excludes them (-LE slow)
// and the bench job runs them; locally a plain `ctest` still includes them
// (they are sized to stay in the seconds range).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "khop/common/error.hpp"

#include "harness/harness.hpp"
#include "khop/net/generator.hpp"
#include "khop/runtime/workspace.hpp"
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

TEST(WorkspaceEquivalenceSlow, ClusteringMatchesReferenceAtScale) {
  Workspace ws;
  const Graph g = random_topology(1000, 7.0, 97);
  const auto prios = make_priorities(g, PriorityRule::kLowestId);
  for (Hops k = 2; k <= 3; ++k) {
    const Clustering got =
        khop_clustering(g, k, prios, AffiliationRule::kDistanceBased, ws);
    const Clustering want =
        reference::khop_clustering(g, k, prios, AffiliationRule::kDistanceBased);
    EXPECT_EQ(got.heads, want.heads);
    EXPECT_EQ(got.head_of, want.head_of);
    EXPECT_EQ(got.dist_to_head, want.dist_to_head);
    EXPECT_EQ(got.election_rounds, want.election_rounds);
  }
}

TEST(BenchHarnessSlow, TimesKernelsAndEmitsSchemaV3Json) {
  bench::Harness h("test", {2, 0.0});
  const Graph g = random_topology(200, 6.0, 7);
  Workspace ws;
  h.time_kernel("clustering", "legacy", g.num_nodes(), 2, [&] {
    return static_cast<double>(reference::khop_clustering(
                                   g, 2,
                                   make_priorities(g, PriorityRule::kLowestId),
                                   AffiliationRule::kIdBased)
                                   .heads.size());
  });
  h.time_kernel("clustering", "workspace", g.num_nodes(), 2, [&] {
    return static_cast<double>(
        khop_clustering(g, 2, make_priorities(g, PriorityRule::kLowestId),
                        AffiliationRule::kIdBased, ws)
            .heads.size());
  });

  EXPECT_TRUE(h.checksum_mismatches().empty());
  EXPECT_GT(h.speedup("clustering", g.num_nodes()), 0.0);

  std::string json = h.to_json();
  EXPECT_NE(json.find("\"schema\": \"khop.bench\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"provenance\": {\"nproc\": "), std::string::npos);
  EXPECT_NE(json.find("\"pool_threads\": null"), std::string::npos);
  EXPECT_NE(json.find("\"git_describe\": \""), std::string::npos);
  h.set_pool_threads(3);
  json = h.to_json();
  EXPECT_NE(json.find("\"pool_threads\": 3,"), std::string::npos);
  EXPECT_NE(json.find("\"allocs_per_rep\""), std::string::npos);
  EXPECT_NE(json.find("\"peak_rss_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"kernels\""), std::string::npos);
  EXPECT_NE(json.find("\"speedups\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_ns_mean\""), std::string::npos);

  const std::string path = "harness_smoke_test.json";
  h.write_json(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream read_back;
  read_back << in.rdbuf();
  EXPECT_EQ(read_back.str(), json);
  in.close();
  std::remove(path.c_str());
}

TEST(BenchHarnessSlow, RejectsNondeterministicKernels) {
  bench::Harness h("test", {2, 0.0});
  double counter = 0.0;
  EXPECT_THROW(h.time_kernel("bogus", "legacy", 1, 1,
                             [&] { return ++counter; }),
               InvariantViolation);
}

}  // namespace
}  // namespace khop
