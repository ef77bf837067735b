// Unit tests for the figure-reproduction experiment driver.
#include <gtest/gtest.h>

#include "khop/common/error.hpp"
#include "khop/exp/experiment.hpp"

namespace khop {
namespace {

TEST(Experiment, SingleTrialProducesConsistentMetrics) {
  ExperimentConfig cfg;
  cfg.num_nodes = 80;
  cfg.k = 2;
  cfg.pipeline = Pipeline::kAcLmst;
  cfg.radius = resolve_radius(cfg, 11);
  Rng rng(99);
  const TrialResultMetrics m = run_single_trial(cfg, rng);
  EXPECT_GT(m.clusterheads, 0.0);
  EXPECT_GE(m.gateways, 0.0);
  EXPECT_DOUBLE_EQ(m.cds_size, m.clusterheads + m.gateways);
  EXPECT_LE(m.cds_size, 80.0);
}

TEST(Experiment, RequiresResolvedRadius) {
  ExperimentConfig cfg;
  Rng rng(1);
  EXPECT_THROW(run_single_trial(cfg, rng), InvalidArgument);
}

TEST(Experiment, TrialsDeterministicPerSeed) {
  ExperimentConfig cfg;
  cfg.num_nodes = 70;
  cfg.radius = resolve_radius(cfg, 22);
  Rng a(5), b(5);
  const TrialResultMetrics m1 = run_single_trial(cfg, a);
  const TrialResultMetrics m2 = run_single_trial(cfg, b);
  EXPECT_DOUBLE_EQ(m1.cds_size, m2.cds_size);
  EXPECT_DOUBLE_EQ(m1.clusterheads, m2.clusterheads);
}

TEST(Experiment, SweepPointAggregates) {
  ThreadPool pool(8);
  ExperimentConfig cfg;
  cfg.num_nodes = 60;
  cfg.k = 1;
  TrialPolicy policy;
  policy.min_trials = 20;
  policy.max_trials = 30;
  const SweepPoint p = run_sweep_point(pool, cfg, policy, 777);
  EXPECT_GE(p.trials, 20u);
  EXPECT_LE(p.trials, 30u);
  EXPECT_GT(p.cds_size.mean(), 0.0);
  EXPECT_DOUBLE_EQ(p.cds_size.mean(),
                   p.clusterheads.mean() + p.gateways.mean());
}

TEST(Experiment, SweepPointDeterministicAcrossPools) {
  ExperimentConfig cfg;
  cfg.num_nodes = 50;
  TrialPolicy policy;
  policy.min_trials = 15;
  policy.max_trials = 15;
  ThreadPool p1(1), p8(8);
  const SweepPoint a = run_sweep_point(p1, cfg, policy, 31);
  const SweepPoint b = run_sweep_point(p8, cfg, policy, 31);
  EXPECT_DOUBLE_EQ(a.cds_size.mean(), b.cds_size.mean());
  EXPECT_DOUBLE_EQ(a.gateways.variance(), b.gateways.variance());
}

TEST(Experiment, PipelinesShareTopologiesAtSameSeed) {
  // Paired comparison: same seed => same topologies => AC-Mesh never beats
  // NC-Mesh on the mean (selection subset guarantees it per instance).
  TrialPolicy policy;
  policy.min_trials = 15;
  policy.max_trials = 15;
  ThreadPool pool(8);

  ExperimentConfig nc;
  nc.num_nodes = 80;
  nc.k = 2;
  nc.pipeline = Pipeline::kNcMesh;
  ExperimentConfig ac = nc;
  ac.pipeline = Pipeline::kAcMesh;

  const SweepPoint pnc = run_sweep_point(pool, nc, policy, 444);
  const SweepPoint pac = run_sweep_point(pool, ac, policy, 444);
  EXPECT_DOUBLE_EQ(pnc.clusterheads.mean(), pac.clusterheads.mean());
  EXPECT_LE(pac.gateways.mean(), pnc.gateways.mean());
}

TEST(Experiment, CurveCoversAllNodeCounts) {
  ThreadPool pool(8);
  ExperimentConfig cfg;
  cfg.k = 1;
  TrialPolicy policy;
  policy.min_trials = 8;
  policy.max_trials = 8;
  const auto curve = run_curve(pool, cfg, {50, 75, 100}, policy, 55);
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_EQ(curve[0].cfg.num_nodes, 50u);
  EXPECT_EQ(curve[2].cfg.num_nodes, 100u);
  // More nodes at fixed degree => more clusters (k fixed).
  EXPECT_LT(curve[0].clusterheads.mean(), curve[2].clusterheads.mean());
}

TEST(Experiment, SweepPointWithZeroKThrowsInvalidArgument) {
  // k = 0 is rejected inside every trial on the pool's workers; the
  // exception must reach the caller instead of terminating the process,
  // and the pool must run the next sweep point.
  ThreadPool pool(4);
  ExperimentConfig cfg;
  cfg.num_nodes = 40;
  cfg.k = 0;
  EXPECT_THROW(run_sweep_point(pool, cfg, TrialPolicy{}, 1), InvalidArgument);
  cfg.k = 1;
  TrialPolicy policy;
  policy.min_trials = 8;
  policy.max_trials = 8;
  const SweepPoint p = run_sweep_point(pool, cfg, policy, 1);
  EXPECT_EQ(p.trials, 8u);
}

}  // namespace
}  // namespace khop
