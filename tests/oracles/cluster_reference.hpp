/// \file cluster_reference.hpp
/// Pre-workspace clustering implementations, preserved verbatim as
/// independent oracles. The production paths in clustering.hpp / kcluster.hpp
/// reuse scratch (a Workspace's BfsScratch election, a flat per-call ball
/// cache); these reference versions keep the original per-call allocating
/// structure (fresh BfsTree per ball, std::map ball cache) and share no code
/// with them. They exist for the bit-exact equivalence suite and as the
/// baseline the perf-regression harness measures speedups against. Not for
/// production call sites.
#pragma once

#include <vector>

#include "khop/cluster/clustering.hpp"
#include "khop/cluster/core_variant.hpp"
#include "khop/cluster/kcluster.hpp"

namespace khop::reference {

/// Original allocating election loop; output bit-identical to
/// khop::khop_clustering.
Clustering khop_clustering(const Graph& g, Hops k,
                           const std::vector<PriorityKey>& priorities,
                           AffiliationRule rule = AffiliationRule::kIdBased);

/// Original single-round core variant; output bit-identical to
/// khop::khop_core.
Clustering khop_core(const Graph& g, Hops k,
                     const std::vector<PriorityKey>& priorities);

/// Original greedy cover with the std::map<NodeId, BfsTree> ball cache;
/// output bit-identical to khop::krishna_kclusters.
KClusterCover krishna_kclusters(const Graph& g, Hops k);

}  // namespace khop::reference
