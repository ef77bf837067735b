// Parameterized cross-validation sweep: the distributed protocol stack must
// reproduce the centralized pipeline bit-for-bit across seeds, densities and
// k - the library's strongest end-to-end correctness statement.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "khop/net/generator.hpp"
#include "khop/sim/protocols/clustering_protocol.hpp"
#include "khop/sim/protocols/gateway_protocol.hpp"

namespace khop {
namespace {

// The ID-based rule keeps the sweep's original names and printed values;
// the distance-based rule appends "_dist".
struct Param {
  std::uint64_t seed;
  double degree;
  Hops k;
  AffiliationRule rule;
};

void PrintTo(const Param& p, std::ostream* os) {
  *os << "(" << p.seed << ", " << p.degree << ", " << p.k;
  if (p.rule == AffiliationRule::kDistanceBased) *os << ", distance";
  *os << ")";
}

std::vector<Param> sweep() {
  std::vector<Param> params;
  for (const AffiliationRule rule :
       {AffiliationRule::kIdBased, AffiliationRule::kDistanceBased}) {
    for (const std::uint64_t seed : {3001u, 3002u, 3003u, 3004u}) {
      for (const double degree : {6.0, 10.0}) {
        for (const Hops k : {1u, 2u, 3u, 4u}) {
          params.push_back({seed, degree, k, rule});
        }
      }
    }
  }
  return params;
}

class DistributedEquivalence : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    GeneratorConfig cfg;
    cfg.num_nodes = 80;
    cfg.target_degree = GetParam().degree;
    Rng rng(GetParam().seed);
    net_ = generate_network(cfg, rng);
  }

  AdHocNetwork net_;
};

TEST_P(DistributedEquivalence, FullStackMatchesCentralized) {
  const auto [seed, degree, k, rule] = GetParam();
  const auto prio = make_priorities(net_.graph, PriorityRule::kLowestId);

  const Clustering central_c = khop_clustering(net_.graph, k, prio, rule);
  const Clustering dist_c =
      run_distributed_clustering(net_.graph, k, prio, rule);
  ASSERT_EQ(dist_c.heads, central_c.heads);
  ASSERT_EQ(dist_c.head_of, central_c.head_of);
  ASSERT_EQ(dist_c.dist_to_head, central_c.dist_to_head);
  ASSERT_EQ(dist_c.cluster_of, central_c.cluster_of);

  const Backbone central_b =
      build_backbone(net_.graph, central_c, Pipeline::kAcLmst);
  const Backbone dist_b = run_distributed_aclmst(net_.graph, dist_c);
  EXPECT_EQ(dist_b.gateways, central_b.gateways);
  EXPECT_EQ(dist_b.virtual_links, central_b.virtual_links);
}

std::string param_name(const ::testing::TestParamInfo<Param>& pinfo) {
  const Param& p = pinfo.param;
  return "s" + std::to_string(p.seed) + "_D" +
         std::to_string(static_cast<int>(p.degree)) + "_k" +
         std::to_string(p.k) +
         (p.rule == AffiliationRule::kDistanceBased ? "_dist" : "");
}

INSTANTIATE_TEST_SUITE_P(Sweep, DistributedEquivalence,
                         ::testing::ValuesIn(sweep()), param_name);

}  // namespace
}  // namespace khop
