/// \file core_variant.hpp
/// The k-hop *core* clustering variant (related work, paper section 1-2).
///
/// Unlike the cluster algorithm, the core algorithm runs a single round:
/// every node designates the best-priority node in its closed k-hop
/// neighborhood as its clusterhead, so resulting heads ("cores") may be
/// mutual neighbors. Provided for completeness and as a contrast baseline in
/// ablation benches; the paper's main pipeline uses the cluster algorithm.
#pragma once

#include "khop/cluster/clustering.hpp"

namespace khop {

/// One-round core designation. The returned Clustering has the same shape as
/// khop_clustering's result but heads need NOT be k-hop independent;
/// election_rounds is always 1.
/// \pre k >= 1; g connected; no priority key is NaN (checked)
///
/// The priority-order buffer of the k min-label sweeps reuses \p ws.
Clustering khop_core(const Graph& g, Hops k,
                     const std::vector<PriorityKey>& priorities,
                     Workspace& ws = tls_workspace());

/// Lowest-ID convenience overload.
Clustering khop_core(const Graph& g, Hops k);

}  // namespace khop
