#include "khop/gateway/head_sweep.hpp"

#include <algorithm>
#include <utility>

#include "khop/common/assert.hpp"
#include "khop/obs/metrics.hpp"
#include "khop/obs/telemetry.hpp"
#include "khop/obs/trace.hpp"
#include "khop/runtime/thread_pool.hpp"
#include "khop/runtime/workspace.hpp"

namespace khop {

namespace {

/// One head's share of the fused pass: its neighbor heads, discovered from
/// the sweep's reached set and written to \p selected once, ascending, at
/// their exact count, and the canonical links for the pairs this head
/// sources (v > u, extracted from the same BFS state) appended to \p out in
/// ascending target order, matching the source-major/ascending-target order
/// of the grouped build.
void sweep_one(const Graph& g, const Clustering& c, NodeId u, Hops horizon,
               Workspace& ws, std::vector<NodeId>& selected,
               VirtualLinkBlock& out) {
  ws.bfs.run(g, u, horizon);
  std::vector<NodeId>& found = ws.node_buf;
  found.clear();
  for (NodeId w : ws.bfs.reached()) {
    if (w != u && c.is_head(w)) found.push_back(w);
  }
  // The reached set is level-ordered; selection lists and link targets are
  // id-ordered, so sort once here (NC discovery never yields duplicates).
  std::sort(found.begin(), found.end());
  selected.assign(found.begin(), found.end());
  for (NodeId v : found) {
    if (v > u) out.append(v, ws.bfs);  // (v, u) comes from v's own sweep
  }
}

/// Sweeps heads [begin, end) into their selection lists and one block.
void sweep_range(const Graph& g, const Clustering& c, std::size_t begin,
                 std::size_t end, Workspace& ws, NeighborSelection& sel,
                 VirtualLinkBlock& out) {
  const Hops horizon = 2 * c.k + 1;
  for (std::size_t i = begin; i < end; ++i) {
    sweep_one(g, c, c.heads[i], horizon, ws, sel.selected[i], out);
  }
}

/// Adopts the blocks (in head order, hence source-major ascending — the
/// order VirtualLinkMap::build produces) and derives head_pairs from them:
/// NC selection is symmetric (distance is), so the selected pairs are
/// exactly the links, already sorted and unique.
HeadSweep finish(std::vector<VirtualLinkBlock> blocks, NeighborSelection sel) {
  // Per-head neighbor-head counts measure the density of the head overlay
  // the gateway stage prunes; observational only.
  if (obs::enabled()) {
    obs::Histogram& h =
        obs::Registry::global().histogram("backbone.head_neighbors");
    for (const auto& s : sel.selected) h.record(s.size());
  }
  HeadSweep r;
  r.links = VirtualLinkMap::from_links(std::move(blocks));
  r.sel = std::move(sel);
  r.sel.head_pairs.reserve(r.links.all().size());
  for (const VirtualLink& l : r.links.all()) {
    r.sel.head_pairs.emplace_back(l.u, l.v);
  }
  return r;
}

NeighborSelection empty_nc_selection(const Clustering& c) {
  KHOP_REQUIRE(!c.heads.empty(), "clustering has no heads");
  NeighborSelection sel;
  sel.rule = NeighborRule::kAllWithin2k1;
  sel.selected.resize(c.heads.size());
  return sel;
}

}  // namespace

HeadSweep nc_sweep(const Graph& g, const Clustering& c, Exec exec) {
  NeighborSelection sel = empty_nc_selection(c);
  std::vector<VirtualLinkBlock> blocks(block_count(exec, c.heads.size()));
  exec_blocks(exec, c.heads.size(),
              [&](std::size_t b, std::size_t begin, std::size_t end,
                  Workspace& ws) {
                sweep_range(g, c, begin, end, ws, sel, blocks[b]);
              });
  return finish(std::move(blocks), std::move(sel));
}

HeadSweep sweep_heads(const Graph& g, const Clustering& c, NeighborRule rule,
                      Exec exec) {
  if (rule == NeighborRule::kAllWithin2k1) {
    obs::Span span("backbone/head_sweep");
    HeadSweep r = nc_sweep(g, c, exec);
    span.arg("head_pairs", static_cast<std::int64_t>(r.sel.head_pairs.size()));
    return r;
  }
  // The selected pairs all sit within 2k+1 hops, so link extraction runs
  // horizon-bounded.
  HeadSweep r;
  {
    obs::Span span("backbone/select_neighbors");
    r.sel = select_neighbors(g, c, rule, exec);
    span.arg("head_pairs", static_cast<std::int64_t>(r.sel.head_pairs.size()));
  }
  obs::Span span("backbone/extract_links");
  r.links = VirtualLinkMap::build(g, r.sel.head_pairs, 2 * c.k + 1, exec);
  return r;
}

}  // namespace khop
