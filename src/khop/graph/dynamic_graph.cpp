#include "khop/graph/dynamic_graph.hpp"

#include <algorithm>
#include <sstream>

#include "khop/common/assert.hpp"

namespace khop {

namespace {

/// Sorted-vector insert; returns false if \p v was already present.
bool sorted_insert(std::vector<NodeId>& list, NodeId v) {
  const auto it = std::lower_bound(list.begin(), list.end(), v);
  if (it != list.end() && *it == v) return false;
  list.insert(it, v);
  return true;
}

/// Sorted-vector erase; returns false if \p v was absent.
bool sorted_erase(std::vector<NodeId>& list, NodeId v) {
  const auto it = std::lower_bound(list.begin(), list.end(), v);
  if (it == list.end() || *it != v) return false;
  list.erase(it);
  return true;
}

}  // namespace

DynamicGraph::DynamicGraph(const Graph& g)
    : adj_(g.num_nodes()),
      alive_(g.num_nodes(), 1),
      num_alive_(g.num_nodes()),
      num_edges_(g.num_edges()) {
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbrs = g.neighbors(u);
    adj_[u].assign(nbrs.begin(), nbrs.end());
  }
}

DynamicGraph DynamicGraph::from_state(std::vector<std::vector<NodeId>> adj,
                                      std::vector<char> alive) {
  KHOP_REQUIRE(adj.size() == alive.size(),
               "adjacency and liveness mask sizes differ");
  DynamicGraph g;
  g.adj_ = std::move(adj);
  g.alive_ = std::move(alive);
  std::size_t endpoints = 0;
  for (NodeId u = 0; u < g.adj_.size(); ++u) {
    if (g.alive_[u]) ++g.num_alive_;
    endpoints += g.adj_[u].size();
  }
  KHOP_REQUIRE(endpoints % 2 == 0, "odd adjacency endpoint count");
  g.num_edges_ = endpoints / 2;
  const std::string s = g.check_consistency();
  KHOP_REQUIRE(s.empty(), "restored graph is inconsistent: " + s);
  return g;
}

bool DynamicGraph::alive(NodeId u) const {
  check_node(u);
  return alive_[u] != 0;
}

std::span<const NodeId> DynamicGraph::neighbors(NodeId u) const {
  check_node(u);
  return adj_[u];
}

std::size_t DynamicGraph::degree(NodeId u) const {
  check_node(u);
  return adj_[u].size();
}

bool DynamicGraph::has_edge(NodeId u, NodeId v) const {
  check_node(u);
  check_node(v);
  return std::binary_search(adj_[u].begin(), adj_[u].end(), v);
}

std::vector<NodeId> DynamicGraph::remove_node(NodeId u) {
  KHOP_REQUIRE(alive(u), "cannot remove a dead node");
  std::vector<NodeId> former(std::move(adj_[u]));
  adj_[u].clear();
  for (NodeId w : former) {
    const bool erased = sorted_erase(adj_[w], u);
    KHOP_ASSERT(erased, "asymmetric adjacency");
  }
  num_edges_ -= former.size();
  alive_[u] = 0;
  --num_alive_;
  return former;
}

void DynamicGraph::add_node(NodeId u, std::span<const NodeId> nbrs) {
  check_node(u);
  KHOP_REQUIRE(alive_[u] == 0, "cannot revive an alive node");
  KHOP_ASSERT(adj_[u].empty(), "dead node with edges");
  // Check every neighbor before inserting any: a rejected join leaves the
  // graph untouched.
  std::vector<NodeId> sorted(nbrs.begin(), nbrs.end());
  std::sort(sorted.begin(), sorted.end());
  for (NodeId w : sorted) {
    KHOP_REQUIRE(w != u, "self-loops are not allowed");
    KHOP_REQUIRE(alive(w), "join neighbor must be alive");
  }
  KHOP_REQUIRE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
               "duplicate join neighbor");
  for (NodeId w : sorted) sorted_insert(adj_[w], u);
  adj_[u] = std::move(sorted);
  num_edges_ += adj_[u].size();
  alive_[u] = 1;
  ++num_alive_;
}

bool DynamicGraph::add_edge(NodeId u, NodeId v) {
  KHOP_REQUIRE(u != v, "self-loops are not allowed");
  KHOP_REQUIRE(alive(u) && alive(v), "edge endpoints must be alive");
  if (!sorted_insert(adj_[u], v)) return false;
  sorted_insert(adj_[v], u);
  ++num_edges_;
  return true;
}

bool DynamicGraph::remove_edge(NodeId u, NodeId v) {
  KHOP_REQUIRE(alive(u) && alive(v), "edge endpoints must be alive");
  if (!sorted_erase(adj_[u], v)) return false;
  sorted_erase(adj_[v], u);
  --num_edges_;
  return true;
}

std::vector<NodeId> DynamicGraph::alive_nodes() const {
  std::vector<NodeId> out;
  out.reserve(num_alive_);
  for (NodeId u = 0; u < alive_.size(); ++u) {
    if (alive_[u]) out.push_back(u);
  }
  return out;
}

Graph DynamicGraph::snapshot() const {
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(num_edges_);
  for (NodeId u = 0; u < adj_.size(); ++u) {
    for (NodeId v : adj_[u]) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return Graph::from_edges(adj_.size(), edges);
}

std::string DynamicGraph::check_consistency() const {
  std::size_t alive_count = 0;
  std::size_t endpoint_count = 0;
  for (NodeId u = 0; u < adj_.size(); ++u) {
    if (alive_[u]) ++alive_count;
    if (!alive_[u] && !adj_[u].empty()) {
      return "dead node " + std::to_string(u) + " has edges";
    }
    if (!std::is_sorted(adj_[u].begin(), adj_[u].end())) {
      return "unsorted adjacency at node " + std::to_string(u);
    }
    if (std::adjacent_find(adj_[u].begin(), adj_[u].end()) != adj_[u].end()) {
      return "duplicate edge at node " + std::to_string(u);
    }
    for (NodeId v : adj_[u]) {
      if (v >= adj_.size()) return "neighbor out of range";
      if (v == u) return "self-loop at node " + std::to_string(u);
      if (!std::binary_search(adj_[v].begin(), adj_[v].end(), u)) {
        std::ostringstream os;
        os << "asymmetric edge {" << u << ", " << v << "}";
        return os.str();
      }
    }
    endpoint_count += adj_[u].size();
  }
  if (alive_count != num_alive_) return "alive counter out of sync";
  if (endpoint_count != 2 * num_edges_) return "edge counter out of sync";
  return {};
}

void DynamicGraph::check_node(NodeId u) const {
  KHOP_REQUIRE(u < adj_.size(), "node id out of range");
}

}  // namespace khop
