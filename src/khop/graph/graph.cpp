#include "khop/graph/graph.hpp"

#include <algorithm>
#include <atomic>

#include "khop/common/assert.hpp"
#include "khop/runtime/thread_pool.hpp"

namespace khop {

namespace {

// Node ids are 32-bit with kInvalidNode reserved as a sentinel, so the id
// space tops out one short of 2^32. Guard *before* sizing any O(n) array:
// at the limit offsets_ alone would be a ~34 GB allocation, and a silent
// 32-bit wrap in later id arithmetic would corrupt results instead of
// failing loudly. Offsets/degree sums stay in std::size_t, which must be
// 64-bit for m up to ~10^7 nodes * avg degree (2m entries).
static_assert(sizeof(std::size_t) >= 8,
              "CSR offsets require a 64-bit size_t");

void check_node_count(std::size_t n) {
  KHOP_REQUIRE(n < static_cast<std::size_t>(kInvalidNode),
               "node count must stay below kInvalidNode (32-bit id space)");
}

}  // namespace

Graph::Graph(std::size_t n) : offsets_() {
  check_node_count(n);
  offsets_.assign(n + 1, 0);
}

Graph Graph::from_edges(std::size_t n,
                        std::span<const std::pair<NodeId, NodeId>> edges) {
  check_node_count(n);
  Graph g(n);
  std::vector<std::size_t> deg(n, 0);
  for (const auto& [u, v] : edges) {
    KHOP_REQUIRE(u < n && v < n, "edge endpoint out of range");
    KHOP_REQUIRE(u != v, "self-loops are not allowed");
    ++deg[u];
    ++deg[v];
  }
  for (std::size_t i = 0; i < n; ++i) g.offsets_[i + 1] = g.offsets_[i] + deg[i];
  g.adjacency_.resize(g.offsets_[n]);

  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& [u, v] : edges) {
    g.adjacency_[cursor[u]++] = v;
    g.adjacency_[cursor[v]++] = u;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto begin = g.adjacency_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[i]);
    const auto end = g.adjacency_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[i + 1]);
    std::sort(begin, end);
    KHOP_REQUIRE(std::adjacent_find(begin, end) == end,
                 "duplicate edge in input");
  }
  return g;
}

Graph Graph::adopt_csr(std::vector<std::size_t> offsets,
                       std::vector<NodeId> adjacency) {
  KHOP_REQUIRE(!offsets.empty(), "CSR offsets must have n+1 entries");
  const std::size_t n = offsets.size() - 1;
  check_node_count(n);
  KHOP_REQUIRE(offsets.front() == 0, "CSR offsets must start at 0");
  KHOP_REQUIRE(offsets.back() == adjacency.size(),
               "CSR offsets must end at adjacency.size()");
  KHOP_REQUIRE(adjacency.size() % 2 == 0,
               "undirected CSR needs an even adjacency length");
  for (std::size_t i = 0; i < n; ++i) {
    KHOP_REQUIRE(offsets[i] <= offsets[i + 1], "CSR offsets must be monotone");
  }
  Graph g(n);
  g.offsets_ = std::move(offsets);
  g.adjacency_ = std::move(adjacency);
  return g;
}

std::size_t Graph::check_csr_row(NodeId u) const {
  const std::size_t n = num_nodes();
  const auto row = neighbors(u);
  std::size_t upper = 0;
  for (std::size_t j = 0; j < row.size(); ++j) {
    const NodeId v = row[j];
    KHOP_REQUIRE(v < n, "CSR neighbor out of range");
    KHOP_REQUIRE(v != u, "self-loops are not allowed");
    KHOP_REQUIRE(j == 0 || row[j - 1] < v,
                 "CSR rows must be strictly ascending");
    if (v > u) {
      const auto mirror = neighbors(v);
      KHOP_REQUIRE(std::binary_search(mirror.begin(), mirror.end(), u),
                   "CSR adjacency must be symmetric");
      ++upper;
    }
  }
  return upper;
}

void Graph::check_csr_upper_count(std::size_t upper) const {
  // Each upper entry (u, v), v > u, has its mirror (v, u) among the lower
  // entries, and distinct upper entries have distinct mirrors. With as many
  // upper as lower entries (half the adjacency) that map is onto: every
  // lower entry is a mirror too, so the adjacency is symmetric.
  KHOP_REQUIRE(2 * upper == adjacency_.size(),
               "CSR adjacency must be symmetric");
}

Graph Graph::from_csr(std::vector<std::size_t> offsets,
                      std::vector<NodeId> adjacency, Exec exec) {
  Graph g = adopt_csr(std::move(offsets), std::move(adjacency));
  // Blocks of rows are checked independently; a failing row ends its block,
  // and the lowest block's exception is the one the ascending one-block
  // loop raises first. Only when every row passes is the count compared.
  std::atomic<std::size_t> upper{0};
  exec_blocks(exec, g.num_nodes(),
              [&](std::size_t, std::size_t begin, std::size_t end,
                  Workspace&) {
                std::size_t block_upper = 0;
                for (std::size_t u = begin; u < end; ++u) {
                  block_upper += g.check_csr_row(static_cast<NodeId>(u));
                }
                upper.fetch_add(block_upper, std::memory_order_relaxed);
              });
  g.check_csr_upper_count(upper.load(std::memory_order_relaxed));
  return g;
}

std::span<const NodeId> Graph::neighbors(NodeId u) const {
  check_node(u);
  return {adjacency_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
}

std::size_t Graph::degree(NodeId u) const {
  check_node(u);
  return offsets_[u + 1] - offsets_[u];
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  check_node(u);
  check_node(v);
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<std::pair<NodeId, NodeId>> Graph::edge_list() const {
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(num_edges());
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (NodeId v : neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return edges;
}

Graph Graph::without_node(NodeId u) const {
  check_node(u);
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(num_edges());
  for (NodeId a = 0; a < num_nodes(); ++a) {
    if (a == u) continue;
    for (NodeId b : neighbors(a)) {
      if (a < b && b != u) edges.emplace_back(a, b);
    }
  }
  return from_edges(num_nodes(), edges);
}

void Graph::check_node(NodeId u) const {
  KHOP_REQUIRE(u < num_nodes(), "node id out of range");
}

}  // namespace khop
