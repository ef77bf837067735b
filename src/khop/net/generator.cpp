#include "khop/net/generator.hpp"

#include "khop/common/assert.hpp"
#include "khop/common/error.hpp"
#include "khop/geom/degree_calibration.hpp"
#include "khop/geom/placement.hpp"
#include "khop/graph/components.hpp"
#include "khop/graph/spatial_grid.hpp"
#include "khop/runtime/workspace.hpp"

namespace khop {

AdHocNetwork generate_network(const GeneratorConfig& cfg, Rng& rng,
                              Workspace& ws) {
  KHOP_REQUIRE(cfg.num_nodes >= 2, "need at least two nodes");

  double radius = 0.0;
  if (cfg.explicit_radius) {
    KHOP_REQUIRE(*cfg.explicit_radius > 0.0, "radius must be positive");
    radius = *cfg.explicit_radius;
  } else if (cfg.radius_mode == RadiusMode::kAnalytic) {
    radius = analytic_radius(cfg.num_nodes, cfg.target_degree, cfg.field);
  } else {
    // Calibration gets its own child stream so placement draws below are
    // unaffected by how many probes calibration used.
    radius = calibrate_radius(cfg.num_nodes, cfg.target_degree, cfg.field,
                              rng.spawn(0x0ca11b));
  }

  AdHocNetwork net;
  net.field = cfg.field;
  net.radius = radius;
  net.requested_nodes = cfg.num_nodes;

  // Connectivity first: a rejected placement costs one grid walk (cut
  // short at its first isolated node) plus union-find, and only the
  // accepted one becomes a Graph, built from the rows that walk recorded.
  for (std::size_t attempt = 1; attempt <= cfg.max_placement_attempts;
       ++attempt) {
    place_uniform_into(cfg.num_nodes, cfg.field, rng, net.positions);
    net.placement_attempts = attempt;
    ws.grid.rebuild(net.positions, radius);
    if (ws.grid.connected_upper_rows(ws.uf, ws.upper_rows)) {
      net.graph = graph_from_upper_rows(ws.upper_rows);
      net.connectivity = attempt == 1
                             ? ConnectivityOutcome::kConnectedFirstTry
                             : ConnectivityOutcome::kConnectedAfterRetry;
      return net;
    }
  }

  if (!cfg.allow_lcc_fallback) {
    throw NotConnected(
        "generate_network: no connected placement within attempt budget");
  }
  // Keep the largest connected component of the final placement.
  net.graph = build_unit_disk_graph_streamed(net.positions, radius, ws.grid);
  const LargestComponent lc = largest_component(net.graph);
  std::vector<Point2> kept;
  kept.reserve(lc.original_ids.size());
  for (NodeId old_id : lc.original_ids) kept.push_back(net.positions[old_id]);
  net.positions = std::move(kept);
  net.graph = build_unit_disk_graph_streamed(net.positions, radius, ws.grid);
  net.connectivity = ConnectivityOutcome::kLargestComponent;
  KHOP_ASSERT(is_connected(net.graph), "LCC extraction must be connected");
  return net;
}

}  // namespace khop
