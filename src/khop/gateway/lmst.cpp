#include "khop/gateway/lmst.hpp"

#include <algorithm>
#include <functional>
#include <tuple>

#include "khop/common/assert.hpp"
#include "khop/common/error.hpp"
#include "khop/runtime/thread_pool.hpp"
#include "khop/runtime/workspace.hpp"

namespace khop {

namespace {

constexpr std::uint32_t kNoEdge = static_cast<std::uint32_t>(-1);

std::pair<NodeId, NodeId> ordered(NodeId a, NodeId b) {
  return {std::min(a, b), std::max(a, b)};
}

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

constexpr std::uint32_t kNoRow = static_cast<std::uint32_t>(-1);

/// The selected pairs' virtual distances as a flat table in \p rows (see
/// PairHopRows), built once per call with one links.link probe per pair.
/// A lookup is then a search of one short row instead of a search over all
/// pairs plus a hash probe.
class PairTable {
 public:
  PairTable(const Clustering& c, const NeighborSelection& sel,
            const VirtualLinkMap& links, PairHopRows& rows)
      : c_(c), rows_(rows) {
    // Canonical (sorted, unique) pairs; a non-canonical input is
    // canonicalized once into scratch.
    const std::vector<std::pair<NodeId, NodeId>>* pairs = &sel.head_pairs;
    if (std::adjacent_find(pairs->begin(), pairs->end(),
                           std::greater_equal<>()) != pairs->end()) {
      rows.canonical.assign(pairs->begin(), pairs->end());
      std::sort(rows.canonical.begin(), rows.canonical.end());
      rows.canonical.erase(
          std::unique(rows.canonical.begin(), rows.canonical.end()),
          rows.canonical.end());
      pairs = &rows.canonical;
    }

    const std::size_t num_rows = c.heads.size();
    std::vector<std::size_t>& offsets = rows.offsets;
    offsets.assign(num_rows + 1, 0);
    for (const auto& [a, b] : *pairs) {
      KHOP_REQUIRE(row(a) != kNoRow && row(b) != kNoRow,
                   "selected pair endpoints must be clusterheads");
      ++offsets[row(a) + 1];
    }
    for (std::size_t r = 0; r < num_rows; ++r) offsets[r + 1] += offsets[r];
    // offsets[r] doubles as row r's fill cursor; canonical order fills
    // each row ascending ...
    rows.entries.resize(offsets[num_rows]);
    for (const auto& [a, b] : *pairs) {
      rows.entries[offsets[row(a)]++] = {b, links.link(a, b).hops};
    }
    // ... and leaves offsets[r] == start of row r + 1; shift back.
    for (std::size_t r = num_rows; r > 0; --r) offsets[r] = offsets[r - 1];
    offsets[0] = 0;
  }

  /// Virtual distance of the selected pair {a, b}, a <= b, or kUnreachable
  /// when the pair is not selected.
  Hops operator()(NodeId a, NodeId b) const {
    const std::uint32_t r = row(a);
    if (r == kNoRow) return kUnreachable;
    const auto first = rows_.entries.begin() +
                       static_cast<std::ptrdiff_t>(rows_.offsets[r]);
    const auto last = rows_.entries.begin() +
                      static_cast<std::ptrdiff_t>(rows_.offsets[r + 1]);
    const auto it = std::lower_bound(
        first, last, b, [](const std::pair<NodeId, Hops>& e, NodeId id) {
          return e.first < id;
        });
    return it != last && it->first == b ? it->second : kUnreachable;
  }

 private:
  /// Row of head \p a (its index in heads), or kNoRow if \p a is not a
  /// head. cluster_of gives it directly; a clustering whose cluster_of is
  /// absent or stale (built by hand, or churned) is searched instead.
  std::uint32_t row(NodeId a) const {
    const std::vector<NodeId>& heads = c_.heads;
    if (a < c_.cluster_of.size()) {
      const std::uint32_t r = c_.cluster_of[a];
      if (r < heads.size() && heads[r] == a) return r;
    }
    const auto it = std::lower_bound(heads.begin(), heads.end(), a);
    return it != heads.end() && *it == a
               ? static_cast<std::uint32_t>(it - heads.begin())
               : kNoRow;
  }

  const Clustering& c_;
  const PairHopRows& rows_;
};

/// One LmstKernel and its buffers, run over a contiguous range of heads.
struct HeadRangeKeeper {
  LmstKernel kernel;
  std::vector<NodeId> sorted_sel;
  std::vector<NodeId> kept;

  /// Appends (u, v) for every neighbor v that head heads[i], i in
  /// [begin, end), keeps, in head order and ascending v per head.
  void run(const Clustering& c, const NeighborSelection& sel,
           const PairTable& pair_hops, std::size_t begin, std::size_t end,
           std::vector<std::pair<NodeId, NodeId>>& out) {
    for (std::size_t i = begin; i < end; ++i) {
      const NodeId u = c.heads[i];
      std::span<const NodeId> nbrs = sel.selected[i];
      if (nbrs.empty()) continue;
      if (!std::is_sorted(nbrs.begin(), nbrs.end())) {
        sorted_sel.assign(nbrs.begin(), nbrs.end());
        std::sort(sorted_sel.begin(), sorted_sel.end());
        nbrs = sorted_sel;
      }
      kernel.keep_list(u, nbrs, pair_hops, kept);
      for (NodeId v : kept) out.emplace_back(u, v);
    }
  }
};

/// Applies the keep rule to the directed keep decisions and marks the
/// gateways of the surviving links.
LmstResult realize(const Clustering& c, const VirtualLinkMap& links,
                   LmstKeepRule keep,
                   std::vector<std::pair<NodeId, NodeId>>& kept_directed) {
  std::sort(kept_directed.begin(), kept_directed.end());
  kept_directed.erase(std::unique(kept_directed.begin(), kept_directed.end()),
                      kept_directed.end());

  // Realize links per the keep rule (union by default, intersection as the
  // stricter LMST G0 ∩ G1 variant).
  LmstResult r;
  std::vector<std::pair<NodeId, NodeId>> undirected;
  undirected.reserve(kept_directed.size());
  for (const auto& [from, to] : kept_directed) {
    undirected.push_back(ordered(from, to));
  }
  std::sort(undirected.begin(), undirected.end());
  undirected.erase(std::unique(undirected.begin(), undirected.end()),
                   undirected.end());
  const auto kept_by = [&](NodeId from, NodeId to) {
    return std::binary_search(kept_directed.begin(), kept_directed.end(),
                              std::pair(from, to));
  };
  for (const auto& p : undirected) {
    const bool fwd = kept_by(p.first, p.second);
    const bool rev = kept_by(p.second, p.first);
    if (fwd != rev) ++r.asymmetric_links;
    if (keep == LmstKeepRule::kBothEndpoints && !(fwd && rev)) continue;
    r.kept_links.push_back(p);
  }

  for (const auto& [u, v] : r.kept_links) {
    const VirtualLink& link = links.link(u, v);
    for (std::size_t i = 1; i + 1 < link.path.size(); ++i) {
      const NodeId w = link.path[i];
      if (!c.is_head(w)) r.gateways.push_back(w);
    }
  }
  std::sort(r.gateways.begin(), r.gateways.end());
  r.gateways.erase(std::unique(r.gateways.begin(), r.gateways.end()),
                   r.gateways.end());
  return r;
}

}  // namespace

LmstResult lmst_gateways(const Clustering& c, const NeighborSelection& sel,
                         const VirtualLinkMap& links, LmstKeepRule keep,
                         Workspace& ws) {
  KHOP_REQUIRE(sel.selected.size() == c.heads.size(),
               "selection does not match clustering");
  const PairTable pair_hops(c, sel, links, ws.lmst_pairs);
  // Directed keep decisions: (head u, neighbor v) kept by u's local MST.
  HeadRangeKeeper keeper;
  std::vector<std::pair<NodeId, NodeId>> kept_directed;
  keeper.run(c, sel, pair_hops, 0, c.heads.size(), kept_directed);
  return realize(c, links, keep, kept_directed);
}

LmstResult lmst_gateways(const Clustering& c, const NeighborSelection& sel,
                         const VirtualLinkMap& links, LmstKeepRule keep,
                         ThreadPool& pool) {
  KHOP_REQUIRE(sel.selected.size() == c.heads.size(),
               "selection does not match clustering");
  // The table lives in the calling thread's workspace; the blocks only
  // read it.
  const PairTable pair_hops(c, sel, links, tls_workspace().lmst_pairs);
  // Contiguous head blocks, each with its own kernel, concatenated in head
  // order: the serial loop's keep sequence. A throwing head ends its block,
  // and the lowest block's exception is the one the serial loop raises.
  using Keep = std::pair<NodeId, NodeId>;
  std::vector<Keep> kept_directed = parallel_concat<Keep>(
      pool, c.heads.size(),
      [&](std::size_t begin, std::size_t end, std::vector<Keep>& out) {
        HeadRangeKeeper keeper;
        keeper.run(c, sel, pair_hops, begin, end, out);
      });
  return realize(c, links, keep, kept_directed);
}

LmstResult lmst_gateways(const Clustering& c, const NeighborSelection& sel,
                         const VirtualLinkMap& links, LmstKeepRule keep) {
  return lmst_gateways(c, sel, links, keep, tls_workspace());
}

}  // namespace khop
