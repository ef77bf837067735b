#include "khop/gateway/lmst.hpp"

#include <algorithm>
#include <functional>
#include <tuple>
#include <utility>

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

constexpr std::uint32_t kNoRow = static_cast<std::uint32_t>(-1);
constexpr std::size_t kNoEntry = static_cast<std::size_t>(-1);

/// The selected pairs as a flat table in \p rows (see PairHopRows), built
/// once per call: entry i is canonical pair i, with its virtual distance,
/// read by position when \p links was built from exactly these pairs. A
/// lookup is a search of one short row instead of a search over all pairs.
/// The kernels record their keep decisions in the table (mark), so the
/// keep rule is one pass over the pairs in canonical order.
class PairTable {
 public:
  PairTable(const Clustering& c, const NeighborSelection& sel,
            const VirtualLinkMap& links, PairHopRows& rows)
      : c_(c), rows_(rows), pairs_(&sel.head_pairs) {
    // Canonical (sorted, unique) pairs; a non-canonical input is
    // canonicalized once into scratch.
    if (std::adjacent_find(pairs_->begin(), pairs_->end(),
                           std::greater_equal<>()) != pairs_->end()) {
      rows.canonical.assign(pairs_->begin(), pairs_->end());
      std::sort(rows.canonical.begin(), rows.canonical.end());
      rows.canonical.erase(
          std::unique(rows.canonical.begin(), rows.canonical.end()),
          rows.canonical.end());
      pairs_ = &rows.canonical;
    }

    const std::size_t num_rows = c.heads.size();
    std::vector<std::size_t>& offsets = rows.offsets;
    offsets.assign(num_rows + 1, 0);
    for (const auto& [a, b] : *pairs_) {
      KHOP_REQUIRE(row(a) != kNoRow && row(b) != kNoRow,
                   "selected pair endpoints must be clusterheads");
      ++offsets[row(a) + 1];
    }
    for (std::size_t r = 0; r < num_rows; ++r) offsets[r + 1] += offsets[r];
    // Rows ascend with the head index, hence with the smaller id, so row
    // order is canonical order and entry i is pair i.
    rows.entries.resize(pairs_->size());
    for (std::size_t i = 0; i < pairs_->size(); ++i) {
      const auto& [a, b] = (*pairs_)[i];
      rows.entries[i] = {b, links.link_at(i, a, b).hops};
    }
    rows.kept_by_smaller.assign(pairs_->size(), 0);
    rows.kept_by_larger.assign(pairs_->size(), 0);
  }

  /// Virtual distance of the selected pair {a, b}, a <= b, or kUnreachable
  /// when the pair is not selected.
  Hops operator()(NodeId a, NodeId b) const {
    const std::size_t e = entry(a, b);
    return e == kNoEntry ? kUnreachable : rows_.entries[e].second;
  }

  /// Records that head \p from keeps its link to \p to. Each flag has one
  /// writer, the block running head \p from.
  void mark(NodeId from, NodeId to) {
    const std::size_t e = entry(std::min(from, to), std::max(from, to));
    KHOP_ASSERT(e != kNoEntry, "kept link is not a selected pair");
    (from < to ? rows_.kept_by_smaller : rows_.kept_by_larger)[e] = 1;
  }

  const std::vector<std::pair<NodeId, NodeId>>& pairs() const {
    return *pairs_;
  }
  const PairHopRows& rows() const { return rows_; }

 private:
  /// Entry index of the selected pair {a, b}, a <= b, or kNoEntry.
  std::size_t entry(NodeId a, NodeId b) const {
    const std::uint32_t r = row(a);
    if (r == kNoRow) return kNoEntry;
    const auto first = rows_.entries.begin() +
                       static_cast<std::ptrdiff_t>(rows_.offsets[r]);
    const auto last = rows_.entries.begin() +
                      static_cast<std::ptrdiff_t>(rows_.offsets[r + 1]);
    const auto it = std::lower_bound(
        first, last, b, [](const std::pair<NodeId, Hops>& e, NodeId id) {
          return e.first < id;
        });
    return it != last && it->first == b
               ? static_cast<std::size_t>(it - rows_.entries.begin())
               : kNoEntry;
  }

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
  PairHopRows& rows_;
  const std::vector<std::pair<NodeId, NodeId>>* pairs_;
};

/// Runs LmstKernel for heads[begin, end) and marks in \p table every link
/// each head keeps.
void keep_range(const Clustering& c, const NeighborSelection& sel,
                PairTable& table, std::size_t begin, std::size_t end) {
  LmstKernel kernel;
  std::vector<NodeId> sorted_sel;
  std::vector<NodeId> kept;
  for (std::size_t i = begin; i < end; ++i) {
    const NodeId u = c.heads[i];
    std::span<const NodeId> nbrs = sel.selected[i];
    if (nbrs.empty()) continue;
    if (!std::is_sorted(nbrs.begin(), nbrs.end())) {
      sorted_sel.assign(nbrs.begin(), nbrs.end());
      std::sort(sorted_sel.begin(), sorted_sel.end());
      nbrs = sorted_sel;
    }
    kernel.keep_list(u, nbrs, std::as_const(table), kept);
    for (NodeId v : kept) table.mark(u, v);
  }
}

/// Applies the keep rule to the marked pairs, in canonical order, and marks
/// the gateways of the surviving links in \p marks.
LmstResult realize(const Clustering& c, const VirtualLinkMap& links,
                   LmstKeepRule keep, const PairTable& table,
                   std::vector<std::uint8_t>& marks) {
  LmstResult r;
  GatewaySet gateways(c, marks);
  const std::vector<std::pair<NodeId, NodeId>>& pairs = table.pairs();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const bool fwd = table.rows().kept_by_smaller[i] != 0;
    const bool rev = table.rows().kept_by_larger[i] != 0;
    if (!fwd && !rev) continue;
    if (fwd != rev) ++r.asymmetric_links;
    if (keep == LmstKeepRule::kBothEndpoints && !(fwd && rev)) continue;
    const auto& [u, v] = pairs[i];
    r.kept_links.push_back(pairs[i]);
    gateways.add(links.interior(links.link_at(i, u, v)));
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
  // The blocks read the table's distances and set disjoint keep flags. A
  // throwing head ends its block, and the lowest block's exception is the
  // one the one-block run raises.
  PairTable table(c, sel, links, exec.ws->lmst_pairs);
  exec_blocks(exec, c.heads.size(),
              [&](std::size_t, std::size_t begin, std::size_t end,
                  Workspace&) { keep_range(c, sel, table, begin, end); });
  return realize(c, links, keep, table, exec.ws->gateway_marks);
}

}  // namespace khop
