#include "khop/cds/cds.hpp"

#include <algorithm>
#include <sstream>

#include "khop/common/assert.hpp"
#include "khop/gateway/validate.hpp"
#include "khop/graph/bfs.hpp"
#include "khop/runtime/workspace.hpp"

namespace khop {

Cds extract_cds(const Clustering& c, const Backbone& b) {
  Cds cds;
  cds.k = c.k;
  cds.num_heads = b.heads.size();
  cds.num_gateways = b.gateways.size();
  cds.nodes.reserve(b.heads.size() + b.gateways.size());
  std::merge(b.heads.begin(), b.heads.end(), b.gateways.begin(),
             b.gateways.end(), std::back_inserter(cds.nodes));
  KHOP_ASSERT(std::adjacent_find(cds.nodes.begin(), cds.nodes.end()) ==
                  cds.nodes.end(),
              "heads and gateways overlap");
  return cds;
}

std::string validate_k_cds(const Graph& g, const Clustering& c,
                           const Backbone& b, Workspace& ws) {
  if (std::string err = validate_backbone(g, b); !err.empty()) return err;

  // k-hop domination by heads: one k-bounded coverage sweep decides it.
  if (ws.bfs.run_cover(g, b.heads, c.k) == g.num_nodes()) {
    return {};
  }
  // Some node is undominated; the full search names the first one and its
  // nearest head's distance, which may lie beyond k.
  const MultiSourceBfs ms = multi_source_bfs(g, b.heads);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (ms.dist[v] == kUnreachable || ms.dist[v] > c.k) {
      std::ostringstream os;
      os << "node " << v << " is not k-hop dominated (nearest head "
         << (ms.dist[v] == kUnreachable ? std::string("unreachable")
                                        : std::to_string(ms.dist[v]))
         << " hops, k = " << c.k << ")";
      return os.str();
    }
  }
  throw InvariantViolation("coverage sweep and full search disagree");
}

}  // namespace khop
