#include "oracles/unit_disk_reference.hpp"

#include <utility>

#include "khop/graph/spatial_grid.hpp"

namespace khop::reference {

Graph build_unit_disk_graph(const std::vector<Point2>& pts, double radius) {
  SpatialGrid grid(pts, radius);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < pts.size(); ++u) {
    for (NodeId v : grid.within_radius(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return Graph::from_edges(pts.size(), edges);
}

}  // namespace khop::reference
