#include "khop/gateway/virtual_link.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "khop/common/assert.hpp"
#include "khop/common/error.hpp"
#include "khop/graph/bfs_scratch.hpp"
#include "khop/runtime/thread_pool.hpp"
#include "khop/runtime/workspace.hpp"

namespace khop {

namespace {

/// The pairs as (min,max), sorted and unique: \p pairs itself when it is
/// already canonical (every selection's head_pairs is), else a canonical copy
/// in \p scratch. The sorted vector is source-major with ascending targets,
/// so equal-source runs ARE the per-source groups.
const std::vector<std::pair<NodeId, NodeId>>& normalized_pairs(
    const std::vector<std::pair<NodeId, NodeId>>& pairs,
    std::vector<std::pair<NodeId, NodeId>>& scratch) {
  bool canonical = true;
  for (std::size_t i = 0; i < pairs.size() && canonical; ++i) {
    canonical = pairs[i].first < pairs[i].second &&
                (i == 0 || pairs[i - 1] < pairs[i]);
  }
  if (canonical) return pairs;
  scratch.reserve(pairs.size());
  for (const auto& [a, b] : pairs) {
    KHOP_REQUIRE(a != b, "virtual link endpoints must differ");
    scratch.emplace_back(std::min(a, b), std::max(a, b));
  }
  std::sort(scratch.begin(), scratch.end());
  scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
  return scratch;
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
                          Workspace& ws, VirtualLinkBlock& out) {
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
    if (ws.bfs.dist(it->second) == kUnreachable) {
      throw NotConnected("virtual link endpoints are disconnected in G");
    }
    out.append(it->second, ws.bfs);
  }
  return fallbacks;
}

/// Start of every run of equal source in a normalized pair vector, then
/// np.size(): group i is [starts[i], starts[i + 1]).
std::vector<std::size_t> source_starts(
    const std::vector<std::pair<NodeId, NodeId>>& np) {
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < np.size(); ++i) {
    if (i == 0 || np[i].first != np[i - 1].first) starts.push_back(i);
  }
  starts.push_back(np.size());
  return starts;
}

/// Extracts source groups [gb, ge) of \p np into \p out, in order; returns
/// the fallback count.
std::size_t extract_groups(const Graph& g,
                           const std::vector<std::pair<NodeId, NodeId>>& np,
                           const std::vector<std::size_t>& starts,
                           std::size_t gb, std::size_t ge, Hops horizon,
                           Workspace& ws, VirtualLinkBlock& out) {
  out.links.reserve(starts[ge] - starts[gb]);
  std::size_t fallbacks = 0;
  for (std::size_t gi = gb; gi < ge; ++gi) {
    fallbacks += extract_group(g, np.data() + starts[gi],
                               np.data() + starts[gi + 1], horizon, ws, out);
  }
  return fallbacks;
}

}  // namespace

void VirtualLinkBlock::append(NodeId v, const BfsScratch& bfs) {
  VirtualLink l;
  l.u = bfs.source();
  l.v = v;
  l.hops = bfs.dist(v);
  l.length = l.hops + 1;
  l.offset = arena.size();
  bfs.append_path(v, arena);
  links.push_back(l);
}

VirtualLinkMap VirtualLinkMap::from_links(
    std::vector<VirtualLinkBlock> blocks) {
  VirtualLinkMap m;
  for (const VirtualLinkBlock& b : blocks) {
    for (const VirtualLink& l : b.links) {
      KHOP_REQUIRE(l.u < l.v,
                   "virtual link endpoints must be (smaller, larger)");
      KHOP_REQUIRE(l.offset <= b.arena.size() &&
                       l.length <= b.arena.size() - l.offset,
                   "virtual link path lies outside its arena");
    }
  }
  if (blocks.size() == 1) {
    m.links_ = std::move(blocks.front().links);
    m.arena_ = std::move(blocks.front().arena);
  } else {
    std::size_t num_links = 0;
    std::size_t num_nodes = 0;
    for (const VirtualLinkBlock& b : blocks) {
      num_links += b.links.size();
      num_nodes += b.arena.size();
    }
    m.links_.reserve(num_links);
    m.arena_.reserve(num_nodes);
    for (const VirtualLinkBlock& b : blocks) {
      const std::size_t base = m.arena_.size();
      for (VirtualLink l : b.links) {
        l.offset += base;
        m.links_.push_back(l);
      }
      m.arena_.insert(m.arena_.end(), b.arena.begin(), b.arena.end());
    }
  }

  KHOP_REQUIRE(m.links_.size() < kInvalidNode, "too many virtual links");
  // Rows by a counting pass over the sources; row_[u] doubles as row u's
  // fill cursor and ends at the start of row u + 1, so shift back after.
  NodeId max_source = 0;
  for (const VirtualLink& l : m.links_) max_source = std::max(max_source, l.u);
  m.row_.assign(m.links_.empty() ? 0 : std::size_t{max_source} + 2, 0);
  for (const VirtualLink& l : m.links_) ++m.row_[l.u + 1];
  for (std::size_t u = 1; u < m.row_.size(); ++u) m.row_[u] += m.row_[u - 1];
  m.index_.resize(m.links_.size());
  for (std::size_t i = 0; i < m.links_.size(); ++i) {
    const VirtualLink& l = m.links_[i];
    m.index_[m.row_[l.u]++] = {l.v, static_cast<std::uint32_t>(i)};
  }
  for (std::size_t u = m.row_.size(); u-- > 1;) m.row_[u] = m.row_[u - 1];
  if (!m.row_.empty()) m.row_[0] = 0;
  // Rows of a build are already ascending; a decoded snapshot's are not.
  const auto by_v = [](const IndexEntry& a, const IndexEntry& b) {
    return a.v < b.v;
  };
  for (std::size_t u = 0; u + 1 < m.row_.size(); ++u) {
    const auto first = m.index_.begin() + m.row_[u];
    const auto last = m.index_.begin() + m.row_[u + 1];
    if (!std::is_sorted(first, last, by_v)) std::sort(first, last, by_v);
    KHOP_REQUIRE(std::adjacent_find(first, last,
                                    [](const IndexEntry& a,
                                       const IndexEntry& b) {
                                      return a.v == b.v;
                                    }) == last,
                 "duplicate virtual link pair");
  }
  return m;
}

VirtualLinkMap VirtualLinkMap::build(
    const Graph& g, const std::vector<std::pair<NodeId, NodeId>>& pairs,
    Hops horizon, Exec exec) {
  std::vector<std::pair<NodeId, NodeId>> scratch;
  const auto& np = normalized_pairs(pairs, scratch);
  const std::vector<std::size_t> starts = source_starts(np);
  const std::size_t num_groups = starts.size() - 1;
  // Blocks of consecutive sources: a throwing group ends its block, and the
  // lowest block's exception is the one a one-block run raises first.
  std::vector<VirtualLinkBlock> blocks(block_count(exec, num_groups));
  std::atomic<std::size_t> fallbacks{0};
  exec_blocks(exec, num_groups,
              [&](std::size_t b, std::size_t gb, std::size_t ge,
                  Workspace& ws) {
                fallbacks.fetch_add(extract_groups(g, np, starts, gb, ge,
                                                   horizon, ws, blocks[b]),
                                    std::memory_order_relaxed);
              });
  VirtualLinkMap m = from_links(std::move(blocks));
  m.bounded_fallbacks_ = fallbacks.load(std::memory_order_relaxed);
  return m;
}

std::size_t VirtualLinkMap::slot(NodeId u, NodeId v) const {
  const auto first = index_.begin() + row_[u];
  const auto last = index_.begin() + row_[u + 1];
  return static_cast<std::size_t>(
      std::lower_bound(first, last, v,
                       [](const IndexEntry& e, NodeId id) { return e.v < id; }) -
      index_.begin());
}

std::size_t VirtualLinkMap::entry(NodeId a, NodeId b) const {
  const NodeId u = std::min(a, b);
  const NodeId v = std::max(a, b);
  if (std::size_t{u} + 1 >= row_.size()) return kNoEntry;
  const std::size_t e = slot(u, v);
  return e < row_[u + 1] && index_[e].v == v ? e : kNoEntry;
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
  const std::size_t e = entry(a, b);
  return e == kNoEntry ? nullptr : &links_[index_[e].pos];
}

void VirtualLinkMap::insert(NodeId u, NodeId v, Hops hops,
                            std::span<const NodeId> p) {
  KHOP_REQUIRE(u < v, "virtual link endpoints must be (smaller, larger)");
  if (std::size_t{u} + 1 >= row_.size()) {
    row_.resize(std::size_t{u} + 2, static_cast<std::uint32_t>(index_.size()));
  }
  const std::size_t e = slot(u, v);
  VirtualLink* l = nullptr;
  if (e < row_[u + 1] && index_[e].v == v) {
    l = &links_[index_[e].pos];
    if (p.size() <= l->length) {
      dead_ += l->length - p.size();
    } else {
      dead_ += l->length;
      l->offset = arena_.size();
      arena_.resize(arena_.size() + p.size());
    }
  } else {
    KHOP_REQUIRE(links_.size() + 1 < kInvalidNode, "too many virtual links");
    index_.insert(index_.begin() + static_cast<std::ptrdiff_t>(e),
                  {v, static_cast<std::uint32_t>(links_.size())});
    for (std::size_t w = std::size_t{u} + 1; w < row_.size(); ++w) ++row_[w];
    l = &links_.emplace_back();
    l->u = u;
    l->v = v;
    l->offset = arena_.size();
    arena_.resize(arena_.size() + p.size());
  }
  l->hops = hops;
  l->length = static_cast<std::uint32_t>(p.size());
  std::copy(p.begin(), p.end(),
            arena_.begin() + static_cast<std::ptrdiff_t>(l->offset));
  maybe_compact();
}

bool VirtualLinkMap::erase(NodeId a, NodeId b) {
  const std::size_t e = entry(a, b);
  if (e == kNoEntry) return false;
  const std::size_t pos = index_[e].pos;
  index_.erase(index_.begin() + static_cast<std::ptrdiff_t>(e));
  for (std::size_t w = std::size_t{std::min(a, b)} + 1; w < row_.size(); ++w) {
    --row_[w];
  }
  dead_ += links_[pos].length;
  if (pos + 1 != links_.size()) {
    links_[pos] = links_.back();
    index_[entry(links_[pos].u, links_[pos].v)].pos =
        static_cast<std::uint32_t>(pos);
  }
  links_.pop_back();
  maybe_compact();
  return true;
}

void VirtualLinkMap::maybe_compact() {
  if (dead_ <= arena_.size() - dead_) return;
  std::vector<NodeId> live;
  live.reserve(arena_.size() - dead_);
  for (VirtualLink& l : links_) {
    const std::span<const NodeId> p = path(l);
    l.offset = live.size();
    live.insert(live.end(), p.begin(), p.end());
  }
  arena_ = std::move(live);
  dead_ = 0;
}

}  // namespace khop
