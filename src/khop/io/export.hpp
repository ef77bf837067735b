/// \file export.hpp
/// Interchange formats: Graphviz DOT and plain-text layouts, so networks and
/// backbones can be plotted (the paper's Figure 4 style) or re-loaded.
#pragma once

#include <iosfwd>
#include <string>

#include "khop/cluster/clustering.hpp"
#include "khop/gateway/backbone.hpp"
#include "khop/net/network.hpp"

namespace khop {

/// Graphviz DOT of the network with roles: clusterheads as doublecircles,
/// gateways filled, members plain; backbone virtual-link paths are not drawn
/// (the physical edges are), but backbone edges are bolded.
void write_dot(std::ostream& os, const AdHocNetwork& net,
               const Clustering& c, const Backbone& b);

/// Plain layout: one line per node, "id x y role cluster dist_to_head"
/// (role: 0 member, 1 gateway, 2 clusterhead). Gnuplot-friendly. Throws
/// InvalidArgument unless \p c has head_of, dist_to_head and cluster_of
/// entries for every node (ChurnEngine::clustering() has no cluster_of).
void write_layout(std::ostream& os, const AdHocNetwork& net,
                  const Clustering& c, const Backbone& b);

/// Serializes a network: header "n radius side", then one "x y" line per
/// node. Edges are implied (unit-disk).
void write_network(std::ostream& os, const AdHocNetwork& net);

/// Reads the write_network format back. Throws InvalidArgument on malformed
/// input: a bad or out-of-range header, a position list shorter than the
/// header's count, or anything but whitespace after it. The graph is rebuilt
/// from positions and radius.
AdHocNetwork read_network(std::istream& is);

}  // namespace khop
