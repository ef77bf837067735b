#include "khop/radio/delivery.hpp"

#include <algorithm>

#include "khop/common/assert.hpp"

namespace khop {

namespace {

/// The key's 53 high bits as a uniform double in [0, 1).
double key_uniform(std::uint64_t key) noexcept {
  return static_cast<double>(key >> 11) * 0x1.0p-53;
}

}  // namespace

LinkDelivery::LinkDelivery(const LinkLayer& links, std::uint64_t seed)
    : DeliveryModel(seed), links_(&links) {
  const Graph& g = links.graph();
  probs_.resize(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbrs = g.neighbors(u);
    probs_[u].reserve(nbrs.size());
    for (NodeId v : nbrs) probs_[u].push_back(links.probability(u, v));
  }
}

bool LinkDelivery::attempt(NodeId from, NodeId to, std::uint64_t key) const {
  double p = 0.0;
  if (from < probs_.size()) {
    const auto nbrs = links_->graph().neighbors(from);
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), to);
    if (it != nbrs.end() && *it == to) {
      p = probs_[from][static_cast<std::size_t>(it - nbrs.begin())];
    }
  }
  return key_uniform(key) < p;
}

UniformLossDelivery::UniformLossDelivery(double loss, std::uint64_t seed)
    : DeliveryModel(seed), loss_(loss) {
  KHOP_REQUIRE(loss >= 0.0 && loss < 1.0, "loss must be in [0, 1)");
}

bool UniformLossDelivery::attempt(NodeId /*from*/, NodeId /*to*/,
                                  std::uint64_t key) const {
  return key_uniform(key) >= loss_;
}

}  // namespace khop
