#include "khop/gateway/gateway_set.hpp"

#include <algorithm>

namespace khop {

GatewaySet::GatewaySet(const Clustering& c, std::vector<std::uint8_t>& marks)
    : c_(c), marks_(marks) {
  if (marks_.size() < c.head_of.size()) marks_.resize(c.head_of.size(), 0);
}

GatewaySet::~GatewaySet() {
  if (count_ != 0) {
    std::fill(marks_.begin() + static_cast<std::ptrdiff_t>(lo_),
              marks_.begin() + static_cast<std::ptrdiff_t>(hi_ + 1), 0);
  }
}

void GatewaySet::add(std::span<const NodeId> interior) {
  for (const NodeId w : interior) {
    // A shortest path may route through a third head; heads are already
    // backbone nodes and are not gateways.
    if (c_.is_head(w) || marks_[w] != 0) continue;
    marks_[w] = 1;
    lo_ = count_ == 0 ? w : std::min<std::size_t>(lo_, w);
    hi_ = count_ == 0 ? w : std::max<std::size_t>(hi_, w);
    ++count_;
  }
}

std::vector<NodeId> GatewaySet::take() {
  std::vector<NodeId> out(count_);
  if (count_ != 0) {
    // Branch-free emit: write every id, advance past the marked ones. The
    // last write is hi_ itself, at index count_ - 1.
    std::size_t k = 0;
    for (std::size_t w = lo_; w <= hi_; ++w) {
      out[k] = static_cast<NodeId>(w);
      k += marks_[w];
      marks_[w] = 0;
    }
    count_ = 0;
  }
  return out;
}

}  // namespace khop
