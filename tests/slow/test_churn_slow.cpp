// Larger churn runs (slow ctest label): >= 1k mixed events per configuration
// with periodic bit-exact audits and per-event equivalence against the naive
// full-recompute reference, including a forced partition + rejoin schedule.
// Companion to tests/test_churn.cpp at CI-fast sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "khop/dynamic/churn_engine.hpp"
#include "khop/dynamic/churn_trace.hpp"
#include "khop/net/generator.hpp"
#include "oracles/churn_reference.hpp"

namespace khop {
namespace {

Graph make_network(std::uint64_t seed, std::size_t n, double degree = 8.0) {
  GeneratorConfig cfg;
  cfg.num_nodes = n;
  cfg.target_degree = degree;
  Rng rng(seed);
  return generate_network(cfg, rng).graph;
}

struct SlowCase {
  std::uint64_t seed;
  std::size_t n;
  Hops k;
  Pipeline pipeline;
  std::size_t events;
};

class ChurnSlow : public ::testing::TestWithParam<SlowCase> {};

TEST_P(ChurnSlow, LongMixedTraceMatchesReference) {
  const SlowCase p = GetParam();
  const Graph g0 = make_network(p.seed, p.n);
  ChurnTraceConfig cfg;
  cfg.num_events = p.events;
  cfg.burst_at = p.events / 4;
  cfg.burst_radius = 1;
  cfg.partition_at = p.events / 2;
  cfg.partition_radius = 2;
  cfg.rejoin_after = 60;
  const ChurnTrace trace = ChurnTrace::generate(g0, cfg, p.seed + 7);
  ASSERT_GE(trace.size(), p.events);

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
    if (applied % 200 == 0) {
      ASSERT_EQ(engine.audit(), "") << "after event " << applied;
    }
  }
  EXPECT_EQ(engine.audit(), "");
  EXPECT_EQ(engine.stats().full_rebuilds, 0u);
  EXPECT_GT(engine.stats().partitions, 0u);
  // Repair locality: incremental repair must touch a small fraction of the
  // network per event on average (the point of the scoping).
  const double avg_touched =
      static_cast<double>(engine.stats().touched_nodes) /
      static_cast<double>(engine.stats().events);
  EXPECT_LT(avg_touched, static_cast<double>(p.n) / 2.0);
}

INSTANTIATE_TEST_SUITE_P(
    Churn, ChurnSlow,
    ::testing::Values(SlowCase{9101, 250, 2, Pipeline::kAcLmst, 1200},
                      SlowCase{9102, 250, 2, Pipeline::kNcMesh, 1200},
                      SlowCase{9103, 300, 3, Pipeline::kAcMesh, 1000},
                      SlowCase{9104, 200, 1, Pipeline::kNcLmst, 1000}),
    [](const ::testing::TestParamInfo<SlowCase>& info) {
      std::string name = "n" + std::to_string(info.param.n) + "_k" +
                         std::to_string(info.param.k) + "_" +
                         std::string(pipeline_name(info.param.pipeline));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace khop
