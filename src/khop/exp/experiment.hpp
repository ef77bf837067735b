/// \file experiment.hpp
/// The paper's simulation study as a reusable driver: one trial = generate a
/// random connected network, cluster it, build the backbone for a pipeline,
/// and report (#clusterheads, #gateways, CDS size). Sweep helpers reproduce
/// the figure series (CDS size vs N for each algorithm and k).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "khop/cds/cds.hpp"
#include "khop/cluster/clustering.hpp"
#include "khop/exp/trial.hpp"
#include "khop/gateway/backbone.hpp"
#include "khop/net/generator.hpp"

namespace khop {

struct ExperimentConfig {
  std::size_t num_nodes = 100;
  double avg_degree = 6.0;
  Hops k = 2;
  Pipeline pipeline = Pipeline::kAcLmst;
  AffiliationRule affiliation = AffiliationRule::kIdBased;
  /// Radius shared by all trials of a sweep point; set via resolve_radius to
  /// avoid re-calibrating inside every trial.
  std::optional<double> radius;
  bool validate = true;  ///< run the k-CDS validator inside each trial
};

/// Calibrated radius for (num_nodes, avg_degree); deterministic in seed.
double resolve_radius(const ExperimentConfig& cfg, std::uint64_t seed);

struct TrialResultMetrics {
  double clusterheads = 0.0;
  double gateways = 0.0;
  double cds_size = 0.0;
};

/// Runs one trial; its generation, clustering, backbone and validation
/// reuse \p ws. Throws InvariantViolation if validation fails.
TrialResultMetrics run_single_trial(const ExperimentConfig& cfg, Rng& rng,
                                    Workspace& ws = tls_workspace());

/// Aggregated sweep point (one curve sample in a paper figure).
struct SweepPoint {
  ExperimentConfig cfg;
  RunningStats clusterheads;
  RunningStats gateways;
  RunningStats cds_size;
  std::size_t trials = 0;
  bool converged = false;
};

/// Runs the trial policy for one configuration.
SweepPoint run_sweep_point(ThreadPool& pool, ExperimentConfig cfg,
                           const TrialPolicy& policy, std::uint64_t seed);

/// Runs a whole curve: one point per node count in \p node_counts.
std::vector<SweepPoint> run_curve(ThreadPool& pool, ExperimentConfig base,
                                  const std::vector<std::size_t>& node_counts,
                                  const TrialPolicy& policy,
                                  std::uint64_t seed);

}  // namespace khop
