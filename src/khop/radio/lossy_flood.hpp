/// \file lossy_flood.hpp
/// Delivery-aware network-wide broadcast: the motivating application of the
/// paper (flooding, blind or CDS-confined) re-run over a lossy link layer
/// through the SyncEngine, instead of the deterministic BFS of
/// khop/cds/broadcast. Reports the delivery ratio actually achieved plus
/// the engine's drop/retransmission accounting.
#pragma once

#include <cstdint>
#include <vector>

#include "khop/radio/link_layer.hpp"
#include "khop/sim/message.hpp"

namespace khop {

struct LossyFloodOptions {
  std::uint64_t seed = 1;         ///< delivery model seed
  std::size_t retry_budget = 0;   ///< link-layer retries per dropped delivery
  /// Forwarder mask (n-sized): only marked nodes relay; the source always
  /// transmits. Empty = blind flooding (every node relays). Use
  /// cds_forwarder_mask() to confine the flood to a clustering backbone.
  std::vector<bool> forwarders;
  /// Round cap; 0 = auto (num_nodes + 8, enough for any loss-free flood;
  /// lossy floods die out earlier by quiescence).
  std::size_t max_rounds = 0;
};

struct LossyFloodResult {
  std::size_t delivered = 0;      ///< nodes that got the payload (incl. source)
  double delivery_ratio = 0.0;    ///< delivered / n
  std::size_t rounds = 0;         ///< rounds run
  bool complete = false;          ///< delivered == n
  /// True iff the flood died out on its own (no messages in flight). False
  /// means max_rounds truncated it — losses did not cause the shortfall.
  bool quiescent = false;
  SimStats stats;                 ///< incl. drops / retransmissions
};

/// Floods one payload from \p source over \p links with Bernoulli per-link
/// delivery (LinkDelivery seeded from opts.seed). Deterministic in
/// (links, source, opts). \pre source < links.num_nodes()
LossyFloodResult lossy_flood(const LinkLayer& links, NodeId source,
                             const LossyFloodOptions& opts = {});

}  // namespace khop
