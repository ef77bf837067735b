#include "khop/io/export.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <string>

#include "khop/common/assert.hpp"
#include "khop/graph/spatial_grid.hpp"

namespace khop {

void write_dot(std::ostream& os, const AdHocNetwork& net,
               const Clustering& c, const Backbone& b) {
  const auto roles = b.roles(net.num_nodes());

  // Backbone edges: physical edges with both endpoints in the CDS.
  const auto mask = b.cds_mask(net.num_nodes());

  os << "graph khop {\n"
     << "  // " << net.num_nodes() << " nodes, radius " << net.radius
     << ", k = " << c.k << ", pipeline " << pipeline_name(b.pipeline)
     << "\n"
     << "  node [shape=circle, fixedsize=true, width=0.25, fontsize=8];\n";
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    os << "  n" << v << " [pos=\"" << net.positions[v].x << ','
       << net.positions[v].y << "!\"";
    if (roles[v] == NodeRole::kClusterhead) {
      os << ", shape=doublecircle, style=filled, fillcolor=gold";
    } else if (roles[v] == NodeRole::kGateway) {
      os << ", style=filled, fillcolor=lightblue";
    }
    os << "];\n";
  }
  for (NodeId u = 0; u < net.num_nodes(); ++u) {
    for (NodeId v : net.graph.neighbors(u)) {
      if (u >= v) continue;
      os << "  n" << u << " -- n" << v;
      if (mask[u] && mask[v]) os << " [penwidth=2.2]";
      os << ";\n";
    }
  }
  os << "}\n";
}

void write_layout(std::ostream& os, const AdHocNetwork& net,
                  const Clustering& c, const Backbone& b) {
  const std::size_t n = net.num_nodes();
  KHOP_REQUIRE(c.head_of.size() == n && c.dist_to_head.size() == n &&
                   c.cluster_of.size() == n,
               "write_layout: clustering does not cover the network");
  const auto roles = b.roles(n);
  os << "# id x y role cluster dist_to_head\n";
  for (NodeId v = 0; v < n; ++v) {
    os << v << ' ' << net.positions[v].x << ' ' << net.positions[v].y << ' '
       << static_cast<int>(roles[v]) << ' ' << c.cluster_of[v] << ' '
       << c.dist_to_head[v] << '\n';
  }
}

void write_network(std::ostream& os, const AdHocNetwork& net) {
  // max_digits10 makes the text round-trip lossless for doubles.
  const auto old_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << net.num_nodes() << ' ' << net.radius << ' ' << net.field.side
     << '\n';
  for (const Point2& p : net.positions) {
    os << p.x << ' ' << p.y << '\n';
  }
  os.precision(old_precision);
}

AdHocNetwork read_network(std::istream& is) {
  AdHocNetwork net;
  std::size_t n = 0;
  if (!(is >> n >> net.radius >> net.field.side)) {
    throw InvalidArgument("read_network: malformed header");
  }
  KHOP_REQUIRE(n >= 1, "read_network: empty network");
  KHOP_REQUIRE(n < kInvalidNode,
               "read_network: node count exceeds the 32-bit id space");
  KHOP_REQUIRE(net.radius > 0.0 && net.field.side > 0.0,
               "read_network: non-positive radius or field");
  // Positions are appended as read, never pre-sized from the header: a count
  // the body does not back fails as truncated instead of being allocated.
  for (std::size_t i = 0; i < n; ++i) {
    Point2 p;
    if (!(is >> p.x >> p.y)) {
      throw InvalidArgument("read_network: truncated position list");
    }
    net.positions.push_back(p);
  }
  is >> std::ws;
  if (is.peek() != std::char_traits<char>::eof()) {
    throw InvalidArgument("read_network: trailing garbage after " +
                          std::to_string(n) + " positions");
  }
  net.requested_nodes = n;
  net.rebuild_graph();
  return net;
}

}  // namespace khop
