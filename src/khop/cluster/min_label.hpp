/// \file min_label.hpp
/// Min-label sweeps over the CSR: the centralized form of the paper's k-round
/// priority flood, shared by the cluster election (clustering.cpp) and the
/// core designation (core_variant.cpp).
///
/// Priorities become 4-byte ranks once per call (lower = better). After i
/// synchronous min_label_pass rounds, label[v] is the minimum starting label
/// over v's closed i-hop ball in G, for O(i * (n + m)) sequential work
/// instead of one bounded BFS per node.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "khop/cluster/priority.hpp"
#include "khop/common/types.hpp"
#include "khop/graph/graph.hpp"

namespace khop {

/// Label of a node that takes no part in a sweep: above every rank, so it
/// never wins a minimum.
inline constexpr std::uint32_t kNoLabel =
    std::numeric_limits<std::uint32_t>::max();

/// Fills \p order with all node ids sorted by (priorities[v], v).
/// \pre no key is NaN (checked: throws InvalidArgument)
void priority_order(const std::vector<PriorityKey>& priorities,
                    std::vector<NodeId>& order);

/// One synchronous pass: out[v] = min(in[v], min over neighbors u of in[u]).
/// Returns whether any label dropped; once none does, every further pass
/// would repeat this one (k past the diameter costs nothing more).
/// \pre in and out have g.num_nodes() entries and do not overlap
bool min_label_pass(const Graph& g, std::span<const std::uint32_t> in,
                    std::span<std::uint32_t> out);

}  // namespace khop
