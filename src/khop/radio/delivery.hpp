/// \file delivery.hpp
/// Radio-driven DeliveryModel implementations for the synchronous simulator.
///
/// The SyncEngine consults its DeliveryModel once per attempt while it
/// delivers; a drop means the receiver simply never sees the message that
/// round. Each decision is a pure function of the link and the attempt key
/// (delivery_key in sim/engine.hpp: seed, round, link, seq, attempt), so
/// the models hold no mutable state, are safe to call from pool workers,
/// and a lossy run is a pure function of (topology, protocol, seed) — the
/// same reproducibility contract as the ideal-MAC engine.
#pragma once

#include <cstdint>
#include <vector>

#include "khop/radio/link_layer.hpp"
#include "khop/sim/engine.hpp"

namespace khop {

/// Bernoulli per-link delivery: an attempt over {from, to} succeeds with the
/// link layer's probability for that link. Links with probability 1 never
/// drop, so a unit-disk link layer reproduces ideal-MAC outcomes exactly.
/// Probabilities are copied adjacency-aligned at construction, so the
/// per-attempt lookup in the engine's innermost loop is an O(log deg)
/// search of one neighbor span, not a search of the whole link list.
class LinkDelivery final : public DeliveryModel {
 public:
  /// \p links must outlive this object.
  LinkDelivery(const LinkLayer& links, std::uint64_t seed);

  bool attempt(NodeId from, NodeId to, std::uint64_t key) const override;

 private:
  const LinkLayer* links_;
  /// probs_[u][i] = delivery probability to graph().neighbors(u)[i].
  std::vector<std::vector<double>> probs_;
};

/// Link-independent Bernoulli loss (ambient interference / collisions):
/// every attempt is dropped with probability \p loss.
class UniformLossDelivery final : public DeliveryModel {
 public:
  /// \pre loss in [0, 1)
  UniformLossDelivery(double loss, std::uint64_t seed);

  bool attempt(NodeId from, NodeId to, std::uint64_t key) const override;

 private:
  double loss_;
};

}  // namespace khop
