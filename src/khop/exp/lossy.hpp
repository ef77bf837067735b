/// \file lossy.hpp
/// The lossy-radio trial variant: one trial = generate a connected topology,
/// evaluate a radio model into a link layer, build the clustering backbone
/// on the possible-links graph, then measure (a) broadcast delivery ratio
/// under per-link Bernoulli loss (blind vs CDS-confined flooding) and
/// (b) backbone survival in a sampled realized topology. This is the
/// experiment surface behind bench/ext_lossy.
#pragma once

#include <memory>
#include <optional>

#include "khop/cds/broadcast.hpp"
#include "khop/exp/trial.hpp"
#include "khop/gateway/backbone.hpp"
#include "khop/radio/link_model.hpp"

namespace khop {

/// Which LinkModel a lossy experiment instantiates (parameters below).
enum class RadioKind : std::uint8_t {
  kUnitDisk,      ///< the paper's ideal disk (losses only via ambient_loss)
  kQuasiUnitDisk, ///< certain inside inner_fraction * radius, ramp to radius
  kLogNormal,     ///< log-normal shadowing with r_half = radius
};

std::string_view radio_kind_name(RadioKind kind);

struct LossyExperimentConfig {
  std::size_t num_nodes = 100;
  double avg_degree = 6.0;
  Hops k = 2;
  Pipeline pipeline = Pipeline::kAcLmst;
  /// Nominal radius shared by all trials; resolve via resolve_lossy_radius
  /// (same calibration stream as the ideal experiments).
  std::optional<double> radius;

  RadioKind radio = RadioKind::kUnitDisk;
  double qudg_inner_fraction = 0.75;  ///< r_min / r_max for kQuasiUnitDisk
  double shadowing_sigma_db = 4.0;    ///< sigma for kLogNormal
  double ambient_loss = 0.0;          ///< extra uniform per-link loss in [0,1)
  std::size_t retry_budget = 0;       ///< link-layer retries per delivery
  CdsFloodModel flood_model = CdsFloodModel::kMemberTrees;
};

/// Calibrated nominal radius for (num_nodes, avg_degree); deterministic in
/// seed and identical to the ideal experiment's resolve_radius stream.
double resolve_lossy_radius(const LossyExperimentConfig& cfg,
                            std::uint64_t seed);

/// Instantiates cfg's radio model at nominal radius \p radius. For
/// kUnitDisk the result reproduces the legacy unit-disk graph exactly.
std::unique_ptr<LinkModel> make_link_model(const LossyExperimentConfig& cfg,
                                           double radius);

struct LossyTrialMetrics {
  double blind_delivery = 0.0;    ///< blind-flood delivery ratio
  double cds_delivery = 0.0;      ///< CDS-confined flood delivery ratio
  double cds_transmissions = 0.0; ///< CDS-flood radio sends
  double drops = 0.0;             ///< CDS-flood per-link losses (final)
  double retransmissions = 0.0;   ///< CDS-flood link-layer retries
  double backbone_survival = 0.0; ///< 1 iff the CDS stays connected AND
                                  ///< dominating in a sampled realized graph
};

/// Runs one lossy trial; its clustering and backbone reuse \p ws.
/// \pre cfg.radius resolved.
LossyTrialMetrics run_lossy_trial(const LossyExperimentConfig& cfg, Rng& rng,
                                  Workspace& ws = tls_workspace());

/// Aggregated lossy sweep point under the trial stopping policy.
struct LossySweepPoint {
  LossyExperimentConfig cfg;
  RunningStats blind_delivery;
  RunningStats cds_delivery;
  RunningStats cds_transmissions;
  RunningStats drops;
  RunningStats retransmissions;
  RunningStats backbone_survival;
  std::size_t trials = 0;
  bool converged = false;
};

LossySweepPoint run_lossy_sweep_point(ThreadPool& pool,
                                      LossyExperimentConfig cfg,
                                      const TrialPolicy& policy,
                                      std::uint64_t seed);

}  // namespace khop
