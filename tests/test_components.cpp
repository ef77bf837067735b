// Unit tests for connectivity analysis.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "khop/common/error.hpp"
#include "khop/graph/components.hpp"
#include "khop/graph/metrics.hpp"

namespace khop {
namespace {

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

TEST(Components, CountsIslands) {
  const Graph g = Graph::from_edges(6, EdgeList{{0, 1}, {2, 3}, {3, 4}});
  const auto c = connected_components(g);
  EXPECT_EQ(c.count, 3u);
  EXPECT_EQ(c.label[0], c.label[1]);
  EXPECT_EQ(c.label[2], c.label[4]);
  EXPECT_NE(c.label[0], c.label[2]);
  EXPECT_NE(c.label[5], c.label[0]);
}

TEST(Components, LabelsFollowSmallestNodeOrder) {
  const Graph g = Graph::from_edges(4, EdgeList{{2, 3}});
  const auto c = connected_components(g);
  EXPECT_EQ(c.label[0], 0u);
  EXPECT_EQ(c.label[1], 1u);
  EXPECT_EQ(c.label[2], 2u);
  EXPECT_EQ(c.label[3], 2u);
}

TEST(Components, ConnectedGraphIsConnected) {
  const Graph g = Graph::from_edges(3, EdgeList{{0, 1}, {1, 2}});
  EXPECT_TRUE(is_connected(g));
}

TEST(Components, SingleAndEmptyAreConnected) {
  EXPECT_TRUE(is_connected(Graph(1)));
  EXPECT_TRUE(is_connected(Graph(0)));
}

TEST(Components, TwoIsolatedNodesAreNot) {
  EXPECT_FALSE(is_connected(Graph(2)));
}

TEST(ConnectedSubset, DetectsSplitSubsets) {
  // Path 0-1-2-3-4: subset {0,1} connected; {0,2} not; {0,1,2} connected,
  // also when its ids are split across the two lists or repeated.
  const Graph g =
      Graph::from_edges(5, EdgeList{{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  using Ids = std::vector<NodeId>;
  EXPECT_TRUE(is_connected_subset(g, Ids{0, 1}, Ids{}));
  EXPECT_FALSE(is_connected_subset(g, Ids{0}, Ids{2}));
  EXPECT_TRUE(is_connected_subset(g, Ids{0, 2}, Ids{1}));
  EXPECT_TRUE(is_connected_subset(g, Ids{}, Ids{2, 1, 0}));
  EXPECT_TRUE(is_connected_subset(g, Ids{0, 1, 1}, Ids{2, 0}));
  EXPECT_FALSE(is_connected_subset(g, Ids{0, 0}, Ids{4, 4}));
}

TEST(ConnectedSubset, EmptyAndSingletonAreConnected) {
  const Graph g = Graph::from_edges(3, EdgeList{{0, 1}});
  using Ids = std::vector<NodeId>;
  EXPECT_TRUE(is_connected_subset(g, Ids{}, Ids{}));
  EXPECT_TRUE(is_connected_subset(g, Ids{2}, Ids{}));
  EXPECT_TRUE(is_connected_subset(g, Ids{2}, Ids{2}));
}

TEST(ConnectedSubset, RejectsOutOfRangeIds) {
  const Graph g = Graph::from_edges(3, EdgeList{{0, 1}});
  using Ids = std::vector<NodeId>;
  EXPECT_THROW((void)is_connected_subset(g, Ids{0, 3}, Ids{}),
               InvalidArgument);
  EXPECT_THROW((void)is_connected_subset(g, Ids{0}, Ids{1, 7}),
               InvalidArgument);
}

TEST(LargestComponent, PicksBiggerIsland) {
  const Graph g = Graph::from_edges(6, EdgeList{{0, 1}, {2, 3}, {3, 4}});
  const auto lc = largest_component(g);
  EXPECT_EQ(lc.original_ids, (std::vector<NodeId>{2, 3, 4}));
  EXPECT_EQ(lc.new_id[3], 1u);
  EXPECT_EQ(lc.new_id[0], kInvalidNode);
}

TEST(Diameter, PathGraph) {
  const Graph g =
      Graph::from_edges(5, EdgeList{{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  EXPECT_EQ(diameter(g), 4u);
}

TEST(Diameter, ThrowsOnDisconnected) {
  EXPECT_THROW(diameter(Graph(2)), NotConnected);
}

}  // namespace
}  // namespace khop
