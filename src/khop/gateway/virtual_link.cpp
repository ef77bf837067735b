#include "khop/gateway/virtual_link.hpp"

#include <algorithm>
#include <utility>

#include "khop/common/assert.hpp"
#include "khop/common/error.hpp"
#include "khop/runtime/thread_pool.hpp"
#include "khop/runtime/workspace.hpp"

namespace khop {

namespace {

/// Normalizes to (min,max), sorts, uniques: the flat-vector replacement for
/// the old std::map-of-vectors by-source grouping. The sorted vector is
/// source-major with ascending targets, so equal-source runs ARE the groups.
std::vector<std::pair<NodeId, NodeId>> normalized_pairs(
    const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  std::vector<std::pair<NodeId, NodeId>> np;
  np.reserve(pairs.size());
  for (const auto& [a, b] : pairs) {
    KHOP_REQUIRE(a != b, "virtual link endpoints must differ");
    np.emplace_back(std::min(a, b), std::max(a, b));
  }
  std::sort(np.begin(), np.end());
  np.erase(std::unique(np.begin(), np.end()), np.end());
  return np;
}

/// Extracts the links of one source group np[first..last) (all sharing
/// np[first].first as source) with a single sweep bounded at \p horizon
/// that stops once its last target is stamped (BfsScratch::run_to_targets:
/// a stamped node's canonical parent is already final). If any target lies
/// beyond the horizon the source is rerun unbounded (identical dist/parent
/// inside the horizon, so identical paths either way). Returns the number of
/// fallback reruns (0 or 1).
std::size_t extract_group(const Graph& g,
                          const std::pair<NodeId, NodeId>* first,
                          const std::pair<NodeId, NodeId>* last, Hops horizon,
                          Workspace& ws, std::vector<VirtualLink>& out) {
  const NodeId src = first->first;
  std::vector<NodeId>& targets = ws.node_buf;
  targets.clear();
  for (const auto* it = first; it != last; ++it) targets.push_back(it->second);
  ws.bfs.run_to_targets(g, src, horizon, targets);
  std::size_t fallbacks = 0;
  if (horizon != kUnreachable) {
    bool beyond = false;
    for (const NodeId dst : targets) {
      beyond = beyond || ws.bfs.dist(dst) == kUnreachable;
    }
    if (beyond) {
      ws.bfs.run_to_targets(g, src, kUnreachable, targets);
      fallbacks = 1;
    }
  }
  for (const auto* it = first; it != last; ++it) {
    const NodeId dst = it->second;
    if (ws.bfs.dist(dst) == kUnreachable) {
      throw NotConnected("virtual link endpoints are disconnected in G");
    }
    VirtualLink link;
    link.u = src;
    link.v = dst;
    link.hops = ws.bfs.dist(dst);
    link.path = ws.bfs.extract_path(dst);
    out.push_back(std::move(link));
  }
  return fallbacks;
}

/// Half-open [begin, end) runs of equal source in a normalized pair vector.
std::vector<std::pair<std::size_t, std::size_t>> source_groups(
    const std::vector<std::pair<NodeId, NodeId>>& np) {
  std::vector<std::pair<std::size_t, std::size_t>> groups;
  for (std::size_t i = 0; i < np.size();) {
    std::size_t j = i + 1;
    while (j < np.size() && np[j].first == np[i].first) ++j;
    groups.emplace_back(i, j);
    i = j;
  }
  return groups;
}

}  // namespace

std::uint64_t VirtualLinkMap::key(NodeId a, NodeId b) noexcept {
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

VirtualLinkMap VirtualLinkMap::from_links(std::vector<VirtualLink> links) {
  VirtualLinkMap m;
  m.links_ = std::move(links);
  m.index_.reserve(m.links_.size());
  for (std::size_t i = 0; i < m.links_.size(); ++i) {
    const VirtualLink& l = m.links_[i];
    KHOP_REQUIRE(l.u < l.v, "virtual link endpoints must be (smaller, larger)");
    const bool inserted = m.index_.emplace(key(l.u, l.v), i).second;
    KHOP_REQUIRE(inserted, "duplicate virtual link pair");
  }
  return m;
}

VirtualLinkMap VirtualLinkMap::build_bounded(
    const Graph& g, const std::vector<std::pair<NodeId, NodeId>>& pairs,
    Hops horizon, Workspace& ws) {
  const auto np = normalized_pairs(pairs);
  std::vector<VirtualLink> links;
  links.reserve(np.size());
  std::size_t fallbacks = 0;
  for (const auto& [begin, end] : source_groups(np)) {
    fallbacks +=
        extract_group(g, np.data() + begin, np.data() + end, horizon, ws,
                      links);
  }
  VirtualLinkMap m = from_links(std::move(links));
  m.bounded_fallbacks_ = fallbacks;
  return m;
}

VirtualLinkMap VirtualLinkMap::build_bounded(
    const Graph& g, const std::vector<std::pair<NodeId, NodeId>>& pairs,
    Hops horizon) {
  return build_bounded(g, pairs, horizon, tls_workspace());
}

VirtualLinkMap VirtualLinkMap::build_bounded(
    const Graph& g, const std::vector<std::pair<NodeId, NodeId>>& pairs,
    Hops horizon, ThreadPool& pool) {
  const auto np = normalized_pairs(pairs);
  const auto groups = source_groups(np);
  std::vector<std::vector<VirtualLink>> slots(groups.size());
  std::vector<std::size_t> slot_fallbacks(groups.size(), 0);
  parallel_for_throwing(pool, groups.size(), [&](std::size_t gi) {
    slot_fallbacks[gi] =
        extract_group(g, np.data() + groups[gi].first,
                      np.data() + groups[gi].second, horizon, tls_workspace(),
                      slots[gi]);
  });

  // Deterministic merge in ascending source order (== group order).
  std::vector<VirtualLink> links;
  links.reserve(np.size());
  std::size_t fallbacks = 0;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    for (VirtualLink& l : slots[gi]) links.push_back(std::move(l));
    fallbacks += slot_fallbacks[gi];
  }
  VirtualLinkMap m = from_links(std::move(links));
  m.bounded_fallbacks_ = fallbacks;
  return m;
}

VirtualLinkMap VirtualLinkMap::build(
    const Graph& g, const std::vector<std::pair<NodeId, NodeId>>& pairs,
    Workspace& ws) {
  return build_bounded(g, pairs, kUnreachable, ws);
}

VirtualLinkMap VirtualLinkMap::build(
    const Graph& g, const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  return build_bounded(g, pairs, kUnreachable, tls_workspace());
}

const VirtualLink& VirtualLinkMap::link(NodeId a, NodeId b) const {
  const VirtualLink* l = find(a, b);
  KHOP_REQUIRE(l != nullptr, "virtual link not built for this pair");
  return *l;
}

bool VirtualLinkMap::contains(NodeId a, NodeId b) const {
  return find(a, b) != nullptr;
}

const VirtualLink* VirtualLinkMap::find(NodeId a, NodeId b) const {
  const auto it = index_.find(key(a, b));
  return it == index_.end() ? nullptr : &links_[it->second];
}

void VirtualLinkMap::insert(VirtualLink l) {
  KHOP_REQUIRE(l.u < l.v, "virtual link endpoints must be (smaller, larger)");
  const auto [it, inserted] = index_.emplace(key(l.u, l.v), links_.size());
  if (inserted) {
    links_.push_back(std::move(l));
  } else {
    links_[it->second] = std::move(l);
  }
}

bool VirtualLinkMap::erase(NodeId a, NodeId b) {
  const auto it = index_.find(key(a, b));
  if (it == index_.end()) return false;
  const std::size_t pos = it->second;
  index_.erase(it);
  if (pos + 1 != links_.size()) {
    links_[pos] = std::move(links_.back());
    index_[key(links_[pos].u, links_[pos].v)] = pos;
  }
  links_.pop_back();
  return true;
}

}  // namespace khop
