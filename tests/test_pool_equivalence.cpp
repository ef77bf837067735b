// Pool/serial parity of the formation path's pooled runs: Graph::from_csr,
// select_neighbors and lmst_gateways given a ThreadPool must return exactly
// what their one-block runs on a workspace return, and throw the same
// exception (type and message) on malformed input, at every pool size. The graphs are large
// enough that every pool block owns rows (nodes or heads). The election's
// on-the-fly affiliation is checked against the reference election on the
// cases it decides differently from a sorted declaration list: distance
// ties, a nearer larger head, and tied same-round winners within k
// (test_workspace_equivalence covers random topologies). Shuffled-id
// jittered grids, the static_scale topology in miniature, pin the two
// stages that work in another order than ascending ids: the election's
// active-set rounds and the unit-disk build's cell-order queries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <numbers>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <typeinfo>
#include <utility>
#include <vector>

#include "khop/common/error.hpp"
#include "khop/common/rng.hpp"
#include "khop/gateway/lmst.hpp"
#include "khop/gateway/virtual_link.hpp"
#include "khop/geom/placement.hpp"
#include "khop/graph/components.hpp"
#include "khop/graph/spatial_grid.hpp"
#include "khop/net/generator.hpp"
#include "khop/nbr/neighbor_rules.hpp"
#include "khop/runtime/thread_pool.hpp"
#include "khop/runtime/workspace.hpp"
#include "oracles/cluster_reference.hpp"
#include "oracles/lmst_oracle.hpp"
#include "oracles/nbr_reference.hpp"
#include "oracles/unit_disk_reference.hpp"

namespace khop {
namespace {

constexpr std::size_t kPoolSizes[] = {1, 2, 4};

constexpr LmstKeepRule kKeepRules[] = {LmstKeepRule::kEitherEndpoint,
                                       LmstKeepRule::kBothEndpoints};

constexpr AffiliationRule kAllRules[] = {AffiliationRule::kIdBased,
                                         AffiliationRule::kDistanceBased,
                                         AffiliationRule::kSizeBased};

Graph random_topology(std::size_t n, double degree, std::uint64_t seed) {
  GeneratorConfig gen;
  gen.num_nodes = n;
  gen.target_degree = degree;
  Rng rng(seed);
  return generate_network(gen, rng).graph;
}

struct Csr {
  std::vector<std::size_t> offsets;
  std::vector<NodeId> adjacency;

  std::span<NodeId> row(NodeId u) {
    return {adjacency.data() + offsets[u], offsets[u + 1] - offsets[u]};
  }
};

Csr csr_of(const Graph& g) {
  Csr csr;
  csr.offsets.push_back(0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto row = g.neighbors(u);
    csr.adjacency.insert(csr.adjacency.end(), row.begin(), row.end());
    csr.offsets.push_back(csr.adjacency.size());
  }
  return csr;
}

void expect_graph_eq(const Graph& got, const Graph& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  for (NodeId u = 0; u < want.num_nodes(); ++u) {
    const auto a = got.neighbors(u);
    const auto b = want.neighbors(u);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "row " << u;
  }
}

/// The exception \p fn throws, as (dynamic type name, message), or nullopt.
std::optional<std::pair<std::string, std::string>> thrown_by(
    const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return std::pair<std::string, std::string>(typeid(e).name(), e.what());
  }
  return std::nullopt;
}

// --- Graph::from_csr ---------------------------------------------------------

TEST(PoolEquivalence, FromCsrValidGraphsEqualSerial) {
  for (std::uint64_t seed : {1u, 2u}) {
    const Graph g = random_topology(500, seed == 1 ? 6.0 : 10.0, 3100 + seed);
    const Csr csr = csr_of(g);
    const Graph serial = Graph::from_csr(csr.offsets, csr.adjacency);
    expect_graph_eq(serial, g);
    for (std::size_t threads : kPoolSizes) {
      ThreadPool pool(threads);
      expect_graph_eq(Graph::from_csr(csr.offsets, csr.adjacency, pool),
                      serial);
    }
  }
}

/// One malformed-row class: corrupts row \p u of \p csr in place, keeping
/// the adjacency length (so the header checks pass). False if row \p u
/// cannot carry this fault.
using Fault = std::function<bool(Csr& csr, NodeId u, std::size_t n)>;

struct NamedFault {
  const char* name;
  Fault apply;
};

const NamedFault kFaults[] = {
    {"out-of-range neighbor",
     [](Csr& csr, NodeId u, std::size_t n) {
       auto row = csr.row(u);
       if (row.empty()) return false;
       row.back() = static_cast<NodeId>(n + 7);
       return true;
     }},
    {"self-loop",
     [](Csr& csr, NodeId u, std::size_t) {
       auto row = csr.row(u);
       if (row.empty()) return false;
       row.front() = u;
       return true;
     }},
    {"unsorted row",
     [](Csr& csr, NodeId u, std::size_t) {
       auto row = csr.row(u);
       if (row.size() < 2) return false;
       std::swap(row[0], row[1]);
       return true;
     }},
    {"duplicate in row",
     [](Csr& csr, NodeId u, std::size_t) {
       auto row = csr.row(u);
       if (row.size() < 2) return false;
       row[1] = row[0];
       return true;
     }},
    {"one-sided edge",
     [](Csr& csr, NodeId u, std::size_t n) {
       // Swap u's largest neighbor for a larger non-neighbor: the row stays
       // ascending, but the new node does not list u.
       auto row = csr.row(u);
       if (row.empty() || row.back() + 1 >= n || u + 1 == n) return false;
       row.back() = static_cast<NodeId>(n - 1);
       return true;
     }},
};

TEST(PoolEquivalence, FromCsrMalformedThrowsSerialException) {
  const Graph g = random_topology(600, 8.0, 3200);
  const std::size_t n = g.num_nodes();
  const Csr clean = csr_of(g);
  for (const NamedFault& fault : kFaults) {
    // Two faults in different pool blocks (at 4 threads there are 16): the
    // serial loop meets the lower one first, and so must the pool.
    for (const auto& [early, late] :
         {std::pair<NodeId, NodeId>(n / 8, 7 * n / 8),
          std::pair<NodeId, NodeId>(n / 3, n / 2)}) {
      Csr bad = clean;
      NodeId a = early;
      while (!fault.apply(bad, a, n)) ++a;
      NodeId b = late;
      while (!fault.apply(bad, b, n)) ++b;
      const auto want = thrown_by(
          [&] { Graph::from_csr(bad.offsets, bad.adjacency); });
      ASSERT_TRUE(want.has_value()) << fault.name;
      EXPECT_EQ(want->first, typeid(InvalidArgument).name()) << fault.name;
      for (std::size_t threads : kPoolSizes) {
        ThreadPool pool(threads);
        const auto got = thrown_by(
            [&] { Graph::from_csr(bad.offsets, bad.adjacency, pool); });
        ASSERT_TRUE(got.has_value()) << fault.name << " threads " << threads;
        EXPECT_EQ(*got, *want) << fault.name << " threads " << threads;
      }
    }
  }
}

TEST(PoolEquivalence, FromCsrMixedFaultsThrowTheLowestRowsException) {
  // A different class in each block: the message must be the lower row's.
  const Graph g = random_topology(600, 8.0, 3300);
  const std::size_t n = g.num_nodes();
  const Csr clean = csr_of(g);
  for (std::size_t i = 0; i < std::size(kFaults); ++i) {
    const NamedFault& first = kFaults[i];
    const NamedFault& second = kFaults[(i + 2) % std::size(kFaults)];
    Csr bad = clean;
    NodeId a = static_cast<NodeId>(n / 5);
    while (!first.apply(bad, a, n)) ++a;
    NodeId b = static_cast<NodeId>(4 * n / 5);
    while (!second.apply(bad, b, n)) ++b;
    const auto want =
        thrown_by([&] { Graph::from_csr(bad.offsets, bad.adjacency); });
    ASSERT_TRUE(want.has_value());
    for (std::size_t threads : kPoolSizes) {
      ThreadPool pool(threads);
      EXPECT_EQ(thrown_by([&] {
                  Graph::from_csr(bad.offsets, bad.adjacency, pool);
                }),
                want)
          << first.name << " + " << second.name << " threads " << threads;
    }
  }
}

TEST(PoolEquivalence, FromCsrUnmirroredLowerEntriesCaughtByCount) {
  // Drop one undirected edge and add two lower entries (u, x), x < u, that
  // row x does not mirror: every row passes its own checks, every upper
  // entry is mirrored, and only the upper/lower count can tell.
  const Graph g = random_topology(600, 8.0, 3500);
  const std::size_t n = g.num_nodes();
  std::vector<std::pair<NodeId, NodeId>> entries;  // directed (row, entry)
  const auto edges = g.edge_list();
  for (std::size_t i = 1; i < edges.size(); ++i) {  // edges[0] dropped
    entries.emplace_back(edges[i].first, edges[i].second);
    entries.emplace_back(edges[i].second, edges[i].first);
  }
  std::size_t added = 0;
  for (NodeId u = static_cast<NodeId>(n / 3); added < 2; u += n / 3) {
    NodeId x = 0;
    while (g.has_edge(u, x) || x == u) ++x;
    ASSERT_LT(x, u);
    entries.emplace_back(u, x);
    ++added;
  }
  std::sort(entries.begin(), entries.end());
  Csr bad;
  bad.offsets.assign(n + 1, 0);
  for (const auto& [u, v] : entries) {
    ++bad.offsets[u + 1];
    bad.adjacency.push_back(v);
  }
  std::partial_sum(bad.offsets.begin(), bad.offsets.end(),
                   bad.offsets.begin());

  const auto want =
      thrown_by([&] { Graph::from_csr(bad.offsets, bad.adjacency); });
  ASSERT_TRUE(want.has_value());
  EXPECT_EQ(want->first, typeid(InvalidArgument).name());
  EXPECT_NE(want->second.find("CSR adjacency must be symmetric"),
            std::string::npos)
      << want->second;
  for (std::size_t threads : kPoolSizes) {
    ThreadPool pool(threads);
    EXPECT_EQ(thrown_by([&] {
                Graph::from_csr(bad.offsets, bad.adjacency, pool);
              }),
              want)
        << "threads " << threads;
  }
}

// --- select_neighbors --------------------------------------------------------

void expect_selection_eq(const NeighborSelection& got,
                         const NeighborSelection& want) {
  EXPECT_EQ(got.rule, want.rule);
  EXPECT_EQ(got.selected, want.selected);
  EXPECT_EQ(got.head_pairs, want.head_pairs);
}

TEST(PoolEquivalence, SelectNeighborsMatchesWorkspaceAllRules) {
  Workspace ws;
  for (std::uint64_t seed : {1u, 2u}) {
    const Graph g = random_topology(500, seed == 1 ? 6.0 : 10.0, 3400 + seed);
    for (Hops k = 1; k <= 3; ++k) {
      const Clustering c = khop_clustering(g, k);
      std::vector<NeighborRule> rules = {NeighborRule::kAdjacent,
                                         NeighborRule::kAllWithin2k1};
      if (k == 1) rules.push_back(NeighborRule::kWuLou25);
      for (NeighborRule rule : rules) {
        const NeighborSelection want = select_neighbors(g, c, rule, ws);
        ASSERT_FALSE(want.head_pairs.empty());
        for (std::size_t threads : kPoolSizes) {
          ThreadPool pool(threads);
          expect_selection_eq(select_neighbors(g, c, rule, pool), want);
        }
      }
    }
  }
}

// --- lmst_gateways -----------------------------------------------------------

void expect_lmst_eq(const LmstResult& got, const LmstResult& want,
                    const std::string& what) {
  EXPECT_EQ(got.kept_links, want.kept_links) << what;
  EXPECT_EQ(got.gateways, want.gateways) << what;
  EXPECT_EQ(got.asymmetric_links, want.asymmetric_links) << what;
}

/// Default, workspace and pool runs against the set-based oracle.
void expect_lmst_matches_oracle(const Clustering& c,
                                const NeighborSelection& sel,
                                const VirtualLinkMap& links,
                                const std::string& what) {
  Workspace ws;
  for (LmstKeepRule keep : kKeepRules) {
    const std::string tag =
        what + " keep " + std::to_string(static_cast<int>(keep));
    const LmstResult want = oracle::legacy_lmst_gateways(c, sel, links, keep);
    expect_lmst_eq(lmst_gateways(c, sel, links, keep), want, tag);
    expect_lmst_eq(lmst_gateways(c, sel, links, keep, ws), want, tag);
    for (std::size_t threads : kPoolSizes) {
      ThreadPool pool(threads);
      expect_lmst_eq(lmst_gateways(c, sel, links, keep, pool), want,
                     tag + " threads " + std::to_string(threads));
    }
  }
}

TEST(PoolEquivalence, LmstMatchesSerialAndOracle) {
  for (std::uint64_t seed : {1u, 2u}) {
    const Graph g = random_topology(500, seed == 1 ? 6.0 : 10.0, 3500 + seed);
    for (Hops k = 1; k <= 2; ++k) {
      const Clustering c = khop_clustering(g, k);
      // 4 threads run 16 head blocks; each must own heads.
      ASSERT_GE(c.heads.size(), 16u);
      for (NeighborRule rule :
           {NeighborRule::kAdjacent, NeighborRule::kAllWithin2k1}) {
        const NeighborSelection sel = select_neighbors(g, c, rule);
        const VirtualLinkMap links = VirtualLinkMap::build(g, sel.head_pairs);
        expect_lmst_matches_oracle(
            c, sel, links,
            "seed " + std::to_string(seed) + " k " + std::to_string(k) +
                " rule " + std::to_string(static_cast<int>(rule)));
      }
    }
  }
}

TEST(PoolEquivalence, LmstNonCanonicalPairsAndSelections) {
  const Graph g = random_topology(500, 8.0, 3600);
  const Clustering c = khop_clustering(g, 1);
  NeighborSelection sel = select_neighbors(g, c, NeighborRule::kAllWithin2k1);
  const VirtualLinkMap links = VirtualLinkMap::build(g, sel.head_pairs);
  // Reversed and duplicated head_pairs; reversed per-head selections.
  Rng rng(36);
  std::reverse(sel.head_pairs.begin(), sel.head_pairs.end());
  for (std::size_t i = 0; i < sel.head_pairs.size(); i += 3) {
    sel.head_pairs.push_back(
        sel.head_pairs[rng.uniform_int(sel.head_pairs.size())]);
  }
  for (auto& list : sel.selected) std::reverse(list.begin(), list.end());
  expect_lmst_matches_oracle(c, sel, links, "non-canonical");
}

TEST(PoolEquivalence, LmstRejectsPairWithNonHeadEndpoint) {
  const Graph g = random_topology(300, 8.0, 3700);
  const Clustering c = khop_clustering(g, 1);
  NeighborSelection sel = select_neighbors(g, c, NeighborRule::kAdjacent);
  // A member of head 0's cluster stands in for a head in one pair.
  const NodeId h = c.heads.front();
  NodeId m = 0;
  while (m < g.num_nodes() && (c.head_of[m] != h || m == h)) ++m;
  ASSERT_LT(m, g.num_nodes());
  std::vector<std::pair<NodeId, NodeId>> pairs = sel.head_pairs;
  pairs.emplace_back(std::min(m, c.heads.back()), std::max(m, c.heads.back()));
  const VirtualLinkMap links = VirtualLinkMap::build(g, pairs);
  sel.head_pairs = pairs;
  EXPECT_THROW(lmst_gateways(c, sel, links), InvalidArgument);
  for (std::size_t threads : kPoolSizes) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        lmst_gateways(c, sel, links, LmstKeepRule::kEitherEndpoint, pool),
        InvalidArgument);
  }
}

TEST(PoolEquivalence, LmstRejectsMapThatDisagreesWithSelection) {
  const Graph g = random_topology(300, 8.0, 3700);
  const Clustering c = khop_clustering(g, 1);
  const NeighborSelection sel =
      select_neighbors(g, c, NeighborRule::kAdjacent);
  ASSERT_FALSE(sel.head_pairs.empty());
  // A selected pair missing from the map, and a map link between two heads
  // neither of which selected the other.
  std::vector<std::pair<NodeId, NodeId>> missing = sel.head_pairs;
  missing.pop_back();
  const std::pair<NodeId, NodeId> extra(c.heads.front(), c.heads.back());
  ASSERT_FALSE(std::binary_search(sel.head_pairs.begin(),
                                  sel.head_pairs.end(), extra));
  std::vector<std::pair<NodeId, NodeId>> surplus = sel.head_pairs;
  surplus.push_back(extra);
  for (const auto& pairs : {missing, surplus}) {
    const VirtualLinkMap links = VirtualLinkMap::build(g, pairs);
    EXPECT_THROW(lmst_gateways(c, sel, links), InvalidArgument);
    for (std::size_t threads : kPoolSizes) {
      ThreadPool pool(threads);
      EXPECT_THROW(
          lmst_gateways(c, sel, links, LmstKeepRule::kEitherEndpoint, pool),
          InvalidArgument);
    }
  }
}

// --- election ----------------------------------------------------------------

void expect_clustering_eq(const Clustering& got, const Clustering& want) {
  EXPECT_EQ(got.k, want.k);
  EXPECT_EQ(got.heads, want.heads);
  EXPECT_EQ(got.head_of, want.head_of);
  EXPECT_EQ(got.dist_to_head, want.dist_to_head);
  EXPECT_EQ(got.cluster_of, want.cluster_of);
  EXPECT_EQ(got.election_rounds, want.election_rounds);
}

Graph path_graph(std::size_t n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  return Graph::from_edges(n, edges);
}

TEST(ElectionEquivalence, DistanceRuleTiesAndNearerLaterHead) {
  // Path 0..6 with k = 2 and heads 0, 3 and 6 winning round 1 (key 0 on
  // them, 9 elsewhere). Nodes 2 and 5 hear a smaller head at 2 hops and a
  // larger one at 1 hop: the distance rule moves them to the larger head,
  // the id rule keeps them with the smaller.
  const Graph g = path_graph(7);
  std::vector<PriorityKey> prios(7, PriorityKey{9.0, 0});
  for (NodeId v = 0; v < 7; ++v) prios[v].id = v;
  for (NodeId h : {0u, 3u, 6u}) prios[h].key = 0.0;
  Workspace ws;
  for (AffiliationRule rule : kAllRules) {
    expect_clustering_eq(khop_clustering(g, 2, prios, rule, ws),
                         reference::khop_clustering(g, 2, prios, rule));
  }
  const Clustering by_dist =
      khop_clustering(g, 2, prios, AffiliationRule::kDistanceBased, ws);
  EXPECT_EQ(by_dist.head_of, (std::vector<NodeId>{0, 0, 3, 3, 3, 6, 6}));
  const Clustering by_id =
      khop_clustering(g, 2, prios, AffiliationRule::kIdBased, ws);
  EXPECT_EQ(by_id.head_of, (std::vector<NodeId>{0, 0, 0, 3, 3, 3, 6}));

  // Path 0..2, k = 1, heads 0 and 2: node 1 hears both at distance 1, and
  // the tie goes to the smaller id under every rule.
  const Graph p3 = path_graph(3);
  const std::vector<PriorityKey> tie = {{0.0, 0}, {5.0, 1}, {0.0, 2}};
  for (AffiliationRule rule : kAllRules) {
    const Clustering c = khop_clustering(p3, 1, tie, rule, ws);
    EXPECT_EQ(c.head_of, (std::vector<NodeId>{0, 0, 2}));
    expect_clustering_eq(c, reference::khop_clustering(p3, 1, tie, rule));
  }
}

TEST(ElectionEquivalence, TiedWinnersWithinKThrow) {
  // Nodes 0 and 2 share one key and lie 2 hops apart: at k = 2 neither
  // beats the other, both win round 1, and the election must reject it.
  const Graph g = path_graph(5);
  const std::vector<PriorityKey> prios = {
      {0.0, 0}, {5.0, 0}, {0.0, 0}, {6.0, 0}, {7.0, 0}};
  Workspace ws;
  for (AffiliationRule rule : kAllRules) {
    EXPECT_THROW(reference::khop_clustering(g, 2, prios, rule),
                 InvariantViolation);
    EXPECT_THROW(khop_clustering(g, 2, prios, rule, ws), InvariantViolation);
    // The same workspace still elects correctly afterwards.
    const auto lowest = make_priorities(g, PriorityRule::kLowestId);
    expect_clustering_eq(khop_clustering(g, 2, lowest, rule, ws),
                         reference::khop_clustering(g, 2, lowest, rule));
  }
}

// --- shuffled-id jittered grids ---------------------------------------------

/// One node per unit cell of a ceil(sqrt(n))^2 lattice, displaced within
/// its cell, with ids in random order: a node's id says nothing of where it
/// lies, as in static_scale.
std::vector<Point2> shuffled_jittered_grid(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const Field field{std::ceil(std::sqrt(static_cast<double>(n)))};
  std::vector<Point2> pts = place_jittered_grid(n, field, rng);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(pts[i - 1], pts[rng.uniform_int(i)]);
  }
  return pts;
}

/// Radius for a mean degree of about 8 at one node per unit area.
const double kGridRadius = std::sqrt(9.0 / std::numbers::pi);

/// The first connected n-node shuffled jittered grid from \p seed on.
Graph connected_jittered_grid(std::size_t n, std::uint64_t seed) {
  for (;; ++seed) {
    Graph g = build_unit_disk_graph(shuffled_jittered_grid(n, seed),
                                    kGridRadius);
    if (is_connected(g)) return g;
  }
}

/// The undecided count at the start of each election round, found without
/// the election: a round's winners are the undecided nodes no undecided key
/// in their closed k-ball beats, and every node within k hops of a winner
/// is decided in that round, whatever the affiliation rule.
std::vector<std::size_t> undecided_per_round(
    const Graph& g, Hops k, const std::vector<PriorityKey>& prios) {
  const std::size_t n = g.num_nodes();
  BfsScratch bfs;
  std::vector<bool> decided(n, false);
  std::vector<std::size_t> counts;
  for (std::size_t undecided = n; undecided > 0;) {
    counts.push_back(undecided);
    std::vector<NodeId> winners;
    for (NodeId u = 0; u < n; ++u) {
      if (decided[u]) continue;
      bfs.run(g, u, k);
      const auto ball = bfs.reached();
      if (std::none_of(ball.begin(), ball.end(), [&](NodeId v) {
            return !decided[v] && prios[v] < prios[u];
          })) {
        winners.push_back(u);
      }
    }
    for (NodeId w : winners) {
      bfs.run(g, w, k);
      for (NodeId v : bfs.reached()) {
        if (!decided[v]) --undecided;
        decided[v] = true;
      }
    }
  }
  return counts;
}

/// k = GetParam() on a 2 * 10^4-node grid, every rule, lowest-id and
/// highest-degree keys. Each election runs at least four rounds, and at
/// least two of them start with fewer than n/4 nodes undecided, the
/// active-set path.
class ElectionEquivalenceMultiRound : public ::testing::TestWithParam<Hops> {};

TEST_P(ElectionEquivalenceMultiRound, JitteredGridMatchesReference) {
  const Hops k = GetParam();
  const Graph g = connected_jittered_grid(20000, 2201);
  const std::size_t n = g.num_nodes();
  Workspace ws;
  for (const PriorityRule pr :
       {PriorityRule::kLowestId, PriorityRule::kHighestDegree}) {
    SCOPED_TRACE("priority " + std::to_string(static_cast<int>(pr)));
    const std::vector<PriorityKey> prios = make_priorities(g, pr);
    const std::vector<std::size_t> counts = undecided_per_round(g, k, prios);
    EXPECT_GE(counts.size(), 4u);
    EXPECT_GE(std::count_if(counts.begin(), counts.end(),
                            [&](std::size_t u) { return 4 * u < n; }),
              2);
    for (AffiliationRule rule : kAllRules) {
      SCOPED_TRACE("rule " + std::to_string(static_cast<int>(rule)));
      const Clustering want = reference::khop_clustering(g, k, prios, rule);
      EXPECT_EQ(want.election_rounds, counts.size());
      expect_clustering_eq(khop_clustering(g, k, prios, rule, ws), want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(K, ElectionEquivalenceMultiRound,
                         ::testing::Values(Hops{1}, Hops{2}, Hops{3},
                                           Hops{4}));

TEST(ElectionEquivalence, TriangleFreeGraphsMatchReference) {
  // In a unit-disk graph a node's neighbors mostly neighbor each other, so
  // a k-ball grows by whole neighborhoods. A random tree and a shuffled-id
  // lattice have no triangles: there an undecided node can be the only one
  // for several hops, and the label passes must still cover its closed
  // balls exactly.
  Rng rng(2207);
  constexpr std::size_t kTreeNodes = 3000;
  std::vector<std::pair<NodeId, NodeId>> tree;
  for (NodeId v = 1; v < kTreeNodes; ++v) {
    tree.emplace_back(static_cast<NodeId>(rng.uniform_int(v)), v);
  }
  constexpr NodeId kSide = 60;
  std::vector<NodeId> id(kSide * kSide);
  std::iota(id.begin(), id.end(), NodeId{0});
  for (std::size_t i = id.size(); i > 1; --i) {
    std::swap(id[i - 1], id[rng.uniform_int(i)]);
  }
  std::vector<std::pair<NodeId, NodeId>> lattice;
  for (NodeId c = 0; c < kSide * kSide; ++c) {
    if (c % kSide + 1 < kSide) lattice.emplace_back(id[c], id[c + 1]);
    if (c / kSide + 1 < kSide) lattice.emplace_back(id[c], id[c + kSide]);
  }
  Workspace ws;
  for (const Graph& g : {Graph::from_edges(kTreeNodes, tree),
                         Graph::from_edges(kSide * kSide, lattice)}) {
    for (Hops k = 1; k <= 4; ++k) {
      for (const PriorityRule pr :
           {PriorityRule::kLowestId, PriorityRule::kHighestDegree}) {
        const std::vector<PriorityKey> prios = make_priorities(g, pr);
        const std::vector<std::size_t> counts =
            undecided_per_round(g, k, prios);
        EXPECT_TRUE(std::any_of(counts.begin(), counts.end(), [&](auto u) {
          return 4 * u < g.num_nodes();
        }));
        for (AffiliationRule rule : kAllRules) {
          expect_clustering_eq(khop_clustering(g, k, prios, rule, ws),
                               reference::khop_clustering(g, k, prios, rule));
        }
      }
    }
  }
}

TEST(ElectionEquivalence, KAtLeastTheDiameterElectsOneHead) {
  // k at least the diameter: the best key wins round 1 and every node joins
  // it at its hop distance, under every rule and priority. The reference
  // confirms that on a smaller grid; on the large one the answer is built
  // from one BFS, the reference's n full searches being too slow here.
  Workspace ws;
  BfsScratch bfs;
  for (const std::size_t n : {std::size_t{1000}, std::size_t{20000}}) {
    const Graph g = connected_jittered_grid(n, 2202);
    bfs.run(g, 0, kUnreachable);
    const Hops k = 2 * bfs.dist(bfs.reached().back());  // >= the diameter
    for (const PriorityRule pr :
         {PriorityRule::kLowestId, PriorityRule::kHighestDegree}) {
      const std::vector<PriorityKey> prios = make_priorities(g, pr);
      const auto best = static_cast<NodeId>(
          std::min_element(prios.begin(), prios.end()) - prios.begin());
      bfs.run(g, best, kUnreachable);
      Clustering want;
      want.k = k;
      want.heads = {best};
      want.head_of.assign(n, best);
      want.dist_to_head.resize(n);
      for (NodeId v = 0; v < n; ++v) want.dist_to_head[v] = bfs.dist(v);
      want.cluster_of.assign(n, 0);
      want.election_rounds = 1;
      for (AffiliationRule rule : kAllRules) {
        expect_clustering_eq(khop_clustering(g, k, prios, rule, ws), want);
        if (n <= 1000) {
          expect_clustering_eq(reference::khop_clustering(g, k, prios, rule),
                               want);
        }
      }
    }
  }
}

TEST(ElectionEquivalence, TiedPairWinningInALateRoundThrows) {
  // Path 0..2m-1 with keys rising from both ends toward the middle: each
  // round the leftmost and the rightmost undecided node win and each covers
  // k more nodes, so with (m - 1) a multiple of k + 1 the middle pair
  // a = m - 1, b = m first competes in round (m - 1) / (k + 1) + 1, when
  // two nodes are undecided. Untied, a wins it and b joins a; tied, both
  // win within k hops of each other, which the election must reject.
  constexpr NodeId m = 121;  // m - 1 = 120 is a multiple of 2, 3, 4 and 5
  const Graph g = path_graph(2 * m);
  std::vector<PriorityKey> prios(2 * m);
  for (NodeId i = 0; i < m; ++i) {
    prios[i] = {2.0 * i, 0};
    prios[2 * m - 1 - i] = {2.0 * i + 1.0, 0};
  }
  std::vector<PriorityKey> tied = prios;
  tied[m] = tied[m - 1];
  Workspace ws;
  for (Hops k = 1; k <= 4; ++k) {
    for (AffiliationRule rule : kAllRules) {
      const Clustering c = khop_clustering(g, k, prios, rule, ws);
      EXPECT_EQ(c.election_rounds, (m - 1) / (k + 1) + 1);
      EXPECT_EQ(c.head_of[m], m - 1);
      expect_clustering_eq(c, reference::khop_clustering(g, k, prios, rule));
      EXPECT_THROW(reference::khop_clustering(g, k, tied, rule),
                   InvariantViolation);
      EXPECT_THROW(khop_clustering(g, k, tied, rule, ws), InvariantViolation);
    }
  }
}

TEST(ElectionEquivalence, DisconnectedJitteredGridThrowsNotConnected) {
  // A strip four cells wide, wider than the radius, emptied down the middle
  // of the grid: two components, each a multi-round election that reaches
  // the active-set path.
  std::vector<Point2> pts = shuffled_jittered_grid(20000, 2203);
  std::erase_if(pts, [](const Point2& p) { return p.x >= 60 && p.x < 64; });
  const Graph g = build_unit_disk_graph(pts, kGridRadius);
  ASSERT_FALSE(is_connected(g));
  const auto prios = make_priorities(g, PriorityRule::kLowestId);
  EXPECT_LT(4 * undecided_per_round(g, 2, prios)[1], g.num_nodes());
  Workspace ws;
  for (Hops k = 1; k <= 4; ++k) {
    for (AffiliationRule rule : kAllRules) {
      EXPECT_THROW(reference::khop_clustering(g, k, prios, rule),
                   NotConnected);
      EXPECT_THROW(khop_clustering(g, k, prios, rule, ws), NotConnected);
    }
  }
}

TEST(PoolEquivalence, AncrByClusterMatchesReferenceOnJitteredGrid) {
  // The static_scale topology in miniature: A-NCR scans each cluster's
  // members, in blocks of clusters on the pool; the selection and its pair
  // list must be the reference's, serially and at every pool size.
  const Graph g = connected_jittered_grid(20000, 2207);
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  Workspace ws;
  for (Hops k = 1; k <= 3; ++k) {
    const Clustering c = khop_clustering(g, k);
    ASSERT_GT(c.heads.size(), 64u) << "k " << k;
    const NeighborSelection want =
        reference::select_neighbors(g, c, NeighborRule::kAdjacent);
    expect_selection_eq(select_neighbors(g, c, NeighborRule::kAdjacent, ws),
                        want);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      hardware}) {
      ThreadPool pool(threads);
      expect_selection_eq(
          select_neighbors(g, c, NeighborRule::kAdjacent, pool), want);
    }
    std::vector<std::pair<std::uint32_t, std::uint32_t>> want_pairs =
        reference::adjacent_cluster_pairs(g, c);
    EXPECT_EQ(adjacent_cluster_pairs(g, c), want_pairs) << "k " << k;
  }
}

TEST(UnitDisk, CellOrderBuildMatchesReferenceAtPoolSizes) {
  // One grid reused across point sets of different n; serial and at pool
  // sizes 1, 2 and the hardware's, the cell-order queries must leave the
  // CSR the edge-list oracle builds.
  SpatialGrid grid;
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  for (const auto& [n, seed] :
       {std::pair<std::size_t, std::uint64_t>{16000, 2204},
        {10000, 2205},
        {12345, 2206}}) {
    const std::vector<Point2> pts = shuffled_jittered_grid(n, seed);
    const Graph want = reference::build_unit_disk_graph(pts, kGridRadius);
    expect_graph_eq(build_unit_disk_graph_streamed(pts, kGridRadius, grid),
                    want);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      hardware}) {
      ThreadPool pool(threads);
      expect_graph_eq(
          build_unit_disk_graph_streamed(pts, kGridRadius, grid, &pool), want);
    }
  }
}

}  // namespace
}  // namespace khop
