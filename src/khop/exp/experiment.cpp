#include "khop/exp/experiment.hpp"

#include "khop/common/assert.hpp"
#include "khop/geom/degree_calibration.hpp"

namespace khop {

double resolve_radius(const ExperimentConfig& cfg, std::uint64_t seed) {
  if (cfg.radius) return *cfg.radius;
  // The calibration stream depends only on (n, D, seed), so every pipeline
  // compared at a sweep point sees identical topologies.
  Rng rng(seed ^ 0xca11b8a7e0ULL);
  return calibrate_radius(cfg.num_nodes, cfg.avg_degree, Field{},
                          rng.spawn(cfg.num_nodes * 1000 +
                                    static_cast<std::uint64_t>(cfg.avg_degree)));
}

TrialResultMetrics run_single_trial(const ExperimentConfig& cfg, Rng& rng,
                                    Workspace& ws) {
  KHOP_REQUIRE(cfg.radius.has_value(),
               "resolve_radius() must be applied before running trials");
  GeneratorConfig gen;
  gen.num_nodes = cfg.num_nodes;
  gen.explicit_radius = cfg.radius;
  const AdHocNetwork net = generate_network(gen, rng, ws);

  const Clustering clustering = khop_clustering(
      net.graph, cfg.k, make_priorities(net.graph, PriorityRule::kLowestId),
      cfg.affiliation, ws);
  const Backbone backbone =
      build_backbone(net.graph, clustering, cfg.pipeline, ws);

  if (cfg.validate) {
    const std::string err =
        validate_k_cds(net.graph, clustering, backbone, ws);
    KHOP_ASSERT(err.empty(), "trial produced invalid k-hop CDS: " + err);
  }

  TrialResultMetrics m;
  m.clusterheads = static_cast<double>(backbone.heads.size());
  m.gateways = static_cast<double>(backbone.gateways.size());
  m.cds_size = static_cast<double>(backbone.cds_size());
  return m;
}

SweepPoint run_sweep_point(ThreadPool& pool, ExperimentConfig cfg,
                           const TrialPolicy& policy, std::uint64_t seed) {
  if (!cfg.radius) cfg.radius = resolve_radius(cfg, seed);

  const Rng master(seed);
  const TrialSummary summary = run_trials(
      pool, policy, master, 3,
      [&cfg](Rng& rng, std::size_t, Workspace& ws) -> std::vector<double> {
        const TrialResultMetrics m = run_single_trial(cfg, rng, ws);
        return {m.clusterheads, m.gateways, m.cds_size};
      });

  SweepPoint point;
  point.cfg = cfg;
  point.clusterheads = summary.metrics[0];
  point.gateways = summary.metrics[1];
  point.cds_size = summary.metrics[2];
  point.trials = summary.trials_run;
  point.converged = summary.converged;
  return point;
}

std::vector<SweepPoint> run_curve(ThreadPool& pool, ExperimentConfig base,
                                  const std::vector<std::size_t>& node_counts,
                                  const TrialPolicy& policy,
                                  std::uint64_t seed) {
  std::vector<SweepPoint> curve;
  curve.reserve(node_counts.size());
  for (std::size_t n : node_counts) {
    ExperimentConfig cfg = base;
    cfg.num_nodes = n;
    cfg.radius.reset();  // re-calibrate per node count
    // Seed varies with n so curves use fresh topologies per point, but the
    // same (seed, n) pair always reproduces the same point.
    curve.push_back(run_sweep_point(pool, cfg, policy, seed + n));
  }
  return curve;
}

}  // namespace khop
