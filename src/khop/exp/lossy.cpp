#include "khop/exp/lossy.hpp"

#include "khop/common/assert.hpp"
#include "khop/exp/experiment.hpp"
#include "khop/graph/components.hpp"
#include "khop/net/generator.hpp"
#include "khop/radio/lossy_flood.hpp"
#include "khop/radio/network_link.hpp"

namespace khop {

std::string_view radio_kind_name(RadioKind kind) {
  switch (kind) {
    case RadioKind::kUnitDisk: return kUnitDiskModelName;
    case RadioKind::kQuasiUnitDisk: return kQuasiUnitDiskModelName;
    case RadioKind::kLogNormal: return kLogNormalModelName;
  }
  return "?";
}

double resolve_lossy_radius(const LossyExperimentConfig& cfg,
                            std::uint64_t seed) {
  if (cfg.radius) return *cfg.radius;
  ExperimentConfig ideal;
  ideal.num_nodes = cfg.num_nodes;
  ideal.avg_degree = cfg.avg_degree;
  return resolve_radius(ideal, seed);
}

std::unique_ptr<LinkModel> make_link_model(const LossyExperimentConfig& cfg,
                                           double radius) {
  KHOP_REQUIRE(radius > 0.0, "radius must be positive");
  switch (cfg.radio) {
    case RadioKind::kUnitDisk:
      return std::make_unique<UnitDiskModel>(radius);
    case RadioKind::kQuasiUnitDisk: {
      KHOP_REQUIRE(
          cfg.qudg_inner_fraction > 0.0 && cfg.qudg_inner_fraction <= 1.0,
          "qudg_inner_fraction must be in (0, 1]");
      return std::make_unique<QuasiUnitDiskModel>(
          cfg.qudg_inner_fraction * radius, radius);
    }
    case RadioKind::kLogNormal: {
      LogNormalShadowingModel::Params p;
      p.r_half = radius;
      p.shadowing_sigma_db = cfg.shadowing_sigma_db;
      return std::make_unique<LogNormalShadowingModel>(p);
    }
  }
  throw InvalidArgument("unknown RadioKind");
}

namespace {

/// Survival in a sampled realized topology: validate_k_cds's two checks.
/// The CDS still induces a connected subgraph AND the paper's k-domination
/// still holds (one k-bounded coverage sweep from the heads reaches every
/// node).
bool backbone_survives(const Graph& realized, const Backbone& b, Hops k,
                       BfsScratch& bfs) {
  return is_connected_subset(realized, b.heads, b.gateways) &&
         bfs.run_cover(realized, b.heads, k) == realized.num_nodes();
}

}  // namespace

LossyTrialMetrics run_lossy_trial(const LossyExperimentConfig& cfg, Rng& rng,
                                  Workspace& ws) {
  KHOP_REQUIRE(cfg.radius.has_value(),
               "resolve_lossy_radius() must be applied before running trials");

  // Connected placement at the nominal radius, exactly like the ideal
  // experiments; the radio model is then evaluated over those positions.
  GeneratorConfig gen;
  gen.num_nodes = cfg.num_nodes;
  gen.explicit_radius = cfg.radius;
  AdHocNetwork net = generate_network(gen, rng, ws);

  const std::unique_ptr<LinkModel> model = make_link_model(cfg, *cfg.radius);
  LinkLayer layer = rebuild_with_model(net, *model);
  if (cfg.ambient_loss > 0.0) {
    layer = with_uniform_loss(layer, cfg.ambient_loss);
  }

  // The backbone is built on the possible-links topology: the protocol
  // designer knows which links exist, not which packets will drop.
  const Clustering clustering = khop_clustering(
      net.graph, cfg.k, make_priorities(net.graph, PriorityRule::kLowestId),
      AffiliationRule::kIdBased, ws);
  const Backbone backbone =
      build_backbone(net.graph, clustering, cfg.pipeline, ws);

  LossyFloodOptions blind_opts;
  blind_opts.seed = rng();
  blind_opts.retry_budget = cfg.retry_budget;
  const LossyFloodResult blind = lossy_flood(layer, 0, blind_opts);

  LossyFloodOptions cds_opts;
  cds_opts.seed = rng();
  cds_opts.retry_budget = cfg.retry_budget;
  cds_opts.forwarders =
      cds_forwarder_mask(net.graph, clustering, backbone, cfg.flood_model);
  const LossyFloodResult cds = lossy_flood(layer, 0, cds_opts);

  Rng sample_rng(rng());
  const Graph realized = sample_realized_graph(layer, sample_rng);

  LossyTrialMetrics m;
  m.blind_delivery = blind.delivery_ratio;
  m.cds_delivery = cds.delivery_ratio;
  m.cds_transmissions = static_cast<double>(cds.stats.transmissions);
  m.drops = static_cast<double>(cds.stats.drops);
  m.retransmissions = static_cast<double>(cds.stats.retransmissions);
  m.backbone_survival =
      backbone_survives(realized, backbone, cfg.k, ws.bfs) ? 1.0 : 0.0;
  return m;
}

LossySweepPoint run_lossy_sweep_point(ThreadPool& pool,
                                      LossyExperimentConfig cfg,
                                      const TrialPolicy& policy,
                                      std::uint64_t seed) {
  if (!cfg.radius) cfg.radius = resolve_lossy_radius(cfg, seed);

  const Rng master(seed);
  const TrialSummary summary = run_trials(
      pool, policy, master, 6,
      [&cfg](Rng& rng, std::size_t, Workspace& ws) -> std::vector<double> {
        const LossyTrialMetrics m = run_lossy_trial(cfg, rng, ws);
        return {m.blind_delivery, m.cds_delivery,    m.cds_transmissions,
                m.drops,          m.retransmissions, m.backbone_survival};
      });

  LossySweepPoint point;
  point.cfg = cfg;
  point.blind_delivery = summary.metrics[0];
  point.cds_delivery = summary.metrics[1];
  point.cds_transmissions = summary.metrics[2];
  point.drops = summary.metrics[3];
  point.retransmissions = summary.metrics[4];
  point.backbone_survival = summary.metrics[5];
  point.trials = summary.trials_run;
  point.converged = summary.converged;
  return point;
}

}  // namespace khop
