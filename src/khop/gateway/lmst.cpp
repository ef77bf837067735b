#include "khop/gateway/lmst.hpp"

#include <algorithm>
#include <tuple>

#include "khop/common/assert.hpp"
#include "khop/common/error.hpp"
#include "khop/gateway/gateway_set.hpp"
#include "khop/runtime/thread_pool.hpp"
#include "khop/runtime/workspace.hpp"

namespace khop {

namespace {

constexpr std::uint32_t kNoEdge = static_cast<std::uint32_t>(-1);

}  // namespace

void LmstKernel::prim_children(std::size_t root, std::vector<NodeId>& out) {
  const std::size_t m = local_.size();
  // Edge (from, to) under edge_less's (weight, min, max) order; local index
  // order is id order, so this is the paper's id tie-break.
  const auto key = [&](std::size_t from, std::size_t to) {
    return std::tuple(weight_[from * m + to], std::min(from, to),
                      std::max(from, to));
  };
  const auto relax = [&](std::size_t from) {
    for (std::size_t v = 0; v < m; ++v) {
      if (in_tree_[v] || weight_[from * m + v] == kUnreachable) continue;
      if (best_[v] == kNoEdge || key(from, v) < key(best_[v], v)) {
        best_[v] = static_cast<std::uint32_t>(from);
      }
    }
  };

  in_tree_.assign(m, 0);
  best_.assign(m, kNoEdge);
  in_tree_[root] = 1;
  relax(root);
  for (std::size_t added = 1; added < m; ++added) {
    std::size_t pick = m;
    for (std::size_t v = 0; v < m; ++v) {
      if (in_tree_[v] || best_[v] == kNoEdge) continue;
      if (pick == m || key(best_[v], v) < key(best_[pick], pick)) pick = v;
    }
    if (pick == m) {
      throw NotConnected("lmst: local virtual graph is not connected");
    }
    in_tree_[pick] = 1;
    relax(pick);
  }

  // best_ now holds each non-root node's tree parent.
  out.clear();
  for (std::size_t v = 0; v < m; ++v) {
    if (v != root && best_[v] == root) out.push_back(local_[v]);
  }
}

namespace {

/// Keep-flag bits (see PairHopRows): the endpoint selected the other one,
/// and the endpoint keeps the link.
constexpr std::uint8_t kSelected = 1;
constexpr std::uint8_t kKept = 2;

/// The flag the block running \p from owns for its side of the link at
/// position \p pos.
std::uint8_t& flag(PairHopRows& flags, NodeId from, NodeId to,
                   std::size_t pos) {
  return (from < to ? flags.by_smaller : flags.by_larger)[pos];
}

/// Runs LmstKernel for heads[begin, end), reading the pair distances from
/// \p links, and flags in \p flags, at the link's position in links.all(),
/// every link each head selects and every link it keeps. Each flag has one
/// writer, the block running the flagging head. Throws InvalidArgument if a
/// selected pair is not in \p links.
void keep_range(const Clustering& c, const NeighborSelection& sel,
                const VirtualLinkMap& links, PairHopRows& flags,
                std::size_t begin, std::size_t end) {
  LmstKernel kernel;
  std::vector<NodeId> sorted_sel;
  std::vector<NodeId> kept;
  const auto pair_hops = [&links](NodeId a, NodeId b) {
    return links.hops(a, b);
  };
  const auto position = [&links](NodeId u, NodeId v) {
    const VirtualLink* l = links.find(u, v);
    KHOP_REQUIRE(l != nullptr, "selected pair is not in the virtual-link map");
    return static_cast<std::size_t>(l - links.all().data());
  };
  for (std::size_t i = begin; i < end; ++i) {
    const NodeId u = c.heads[i];
    std::span<const NodeId> nbrs = sel.selected[i];
    if (nbrs.empty()) continue;
    if (!std::is_sorted(nbrs.begin(), nbrs.end())) {
      sorted_sel.assign(nbrs.begin(), nbrs.end());
      std::sort(sorted_sel.begin(), sorted_sel.end());
      nbrs = sorted_sel;
    }
    for (NodeId v : nbrs) flag(flags, u, v, position(u, v)) |= kSelected;
    kernel.keep_list(u, nbrs, pair_hops, kept);
    for (NodeId v : kept) flag(flags, u, v, position(u, v)) |= kKept;
  }
}

/// Applies the keep rule to the flagged links, in links.all() order, and
/// marks the gateways of the surviving links in \p marks. Throws
/// InvalidArgument if a link was selected by neither endpoint.
LmstResult realize(const Clustering& c, const VirtualLinkMap& links,
                   LmstKeepRule keep, const PairHopRows& flags,
                   std::vector<std::uint8_t>& marks) {
  LmstResult r;
  GatewaySet gateways(c, marks);
  const std::vector<VirtualLink>& all = links.all();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::uint8_t smaller = flags.by_smaller[i];
    const std::uint8_t larger = flags.by_larger[i];
    KHOP_REQUIRE(((smaller | larger) & kSelected) != 0,
                 "virtual link is not a selected pair");
    const bool fwd = (smaller & kKept) != 0;
    const bool rev = (larger & kKept) != 0;
    if (!fwd && !rev) continue;
    if (fwd != rev) ++r.asymmetric_links;
    if (keep == LmstKeepRule::kBothEndpoints && !(fwd && rev)) continue;
    r.kept_links.emplace_back(all[i].u, all[i].v);
    gateways.add(links.interior(all[i]));
  }
  // A mutated map (the churn engine's) is not in (u, v) order.
  if (!std::is_sorted(r.kept_links.begin(), r.kept_links.end())) {
    std::sort(r.kept_links.begin(), r.kept_links.end());
  }
  r.gateways = gateways.take();
  return r;
}

}  // namespace

LmstResult lmst_gateways(const Clustering& c, const NeighborSelection& sel,
                         const VirtualLinkMap& links, LmstKeepRule keep,
                         Exec exec) {
  KHOP_REQUIRE(sel.selected.size() == c.heads.size(),
               "selection does not match clustering");
  for (const VirtualLink& l : links.all()) {
    KHOP_REQUIRE(l.v < c.head_of.size() && c.is_head(l.u) && c.is_head(l.v),
                 "virtual link endpoints must be clusterheads");
  }
  // The blocks read the map and set disjoint flags. A throwing head
  // ends its block, and the lowest block's exception is the one the
  // one-block run raises.
  PairHopRows& flags = exec.ws->lmst_pairs;
  flags.by_smaller.assign(links.all().size(), 0);
  flags.by_larger.assign(links.all().size(), 0);
  exec_blocks(exec, c.heads.size(),
              [&](std::size_t, std::size_t begin, std::size_t end,
                  Workspace&) { keep_range(c, sel, links, flags, begin, end); });
  return realize(c, links, keep, flags, exec.ws->gateway_marks);
}

}  // namespace khop
