/// \file generator.hpp
/// Random connected ad hoc network generation, parameterized exactly like the
/// paper's simulation: node count N in a 100x100 field and a target average
/// node degree D (the transmission radius is derived from D).
#pragma once

#include <cstddef>
#include <optional>

#include "khop/common/rng.hpp"
#include "khop/net/network.hpp"
#include "khop/runtime/exec.hpp"

namespace khop {

/// How the transmission radius is chosen for a target average degree.
enum class RadiusMode : std::uint8_t {
  kAnalytic,    ///< r = sqrt(D*A / (pi*(N-1))); ignores border loss
  kCalibrated,  ///< empirical bisection so the realized mean degree ~= D
};

struct GeneratorConfig {
  std::size_t num_nodes = 100;
  Field field{100.0};
  /// Target average degree (paper uses 6 and 10). Ignored when
  /// explicit_radius is set.
  double target_degree = 6.0;
  std::optional<double> explicit_radius;
  RadiusMode radius_mode = RadiusMode::kCalibrated;

  /// Theorem 1 requires a connected G: retry placements up to this many
  /// times, then (if allow_lcc_fallback) keep the largest connected
  /// component of the last placement, else throw NotConnected.
  std::size_t max_placement_attempts = 200;
  bool allow_lcc_fallback = true;
};

/// Generates a network per \p cfg. Deterministic in (cfg, rng seed).
///
/// Each attempt is connectivity first: the placement is drawn in place
/// (place_uniform's draws, x then y per node), the spatial grid is rebuilt,
/// and one ascending walk over the grid's pairs unites each node with its
/// higher-id neighbors (SpatialGrid::connected_upper_rows). The walk rejects
/// the placement at its first isolated node, or at the end if more than one
/// component is left. A rejected placement therefore never becomes a Graph;
/// the accepted one is built once, from the rows that walk recorded
/// (graph_from_upper_rows), bit-identical to build_unit_disk_graph_streamed
/// and validated by Graph::from_csr.
///
/// The grid, the union-find and the recorded rows live in \p ws, so
/// Monte-Carlo trials of one configuration reuse them instead of
/// re-allocating per placement; the output depends only on (cfg, rng state).
AdHocNetwork generate_network(const GeneratorConfig& cfg, Rng& rng,
                              Workspace& ws = tls_workspace());

}  // namespace khop
