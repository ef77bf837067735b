/// \file unit_disk_reference.hpp
/// The pre-PR8 unit-disk builder, preserved verbatim as the oracle of the
/// streamed CSR builders in graph/spatial_grid.hpp.
#pragma once

#include <vector>

#include "khop/geom/point.hpp"
#include "khop/graph/graph.hpp"

namespace khop::reference {

/// Materializes the full (u, v) edge-pair vector and hands it to
/// Graph::from_edges; bit-identical to khop::build_unit_disk_graph.
Graph build_unit_disk_graph(const std::vector<Point2>& pts, double radius);

}  // namespace khop::reference
