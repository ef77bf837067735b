// Unit tests for the interchange formats (DOT / layout / network).
#include <gtest/gtest.h>

#include <sstream>

#include "khop/common/error.hpp"
#include "khop/dynamic/churn_engine.hpp"
#include "khop/io/export.hpp"
#include "khop/net/generator.hpp"

namespace khop {
namespace {

struct Fixture {
  AdHocNetwork net;
  Clustering clustering;
  Backbone backbone;

  explicit Fixture(std::uint64_t seed, std::size_t n = 60) {
    GeneratorConfig cfg;
    cfg.num_nodes = n;
    Rng rng(seed);
    net = generate_network(cfg, rng);
    clustering = khop_clustering(net.graph, 2);
    backbone = build_backbone(net.graph, clustering, Pipeline::kAcLmst);
  }
};

TEST(IoDot, ContainsAllNodesAndEdges) {
  const Fixture f(1601);
  std::ostringstream os;
  write_dot(os, f.net, f.clustering, f.backbone);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("graph khop {"), std::string::npos);
  for (NodeId v = 0; v < f.net.num_nodes(); ++v) {
    EXPECT_NE(dot.find("n" + std::to_string(v) + " [pos="),
              std::string::npos)
        << v;
  }
  // Every head renders as a doublecircle; count them.
  std::size_t count = 0;
  for (std::size_t pos = dot.find("doublecircle"); pos != std::string::npos;
       pos = dot.find("doublecircle", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, f.backbone.heads.size());
}

TEST(IoLayout, OneLinePerNode) {
  const Fixture f(1602);
  std::ostringstream os;
  write_layout(os, f.net, f.clustering, f.backbone);
  std::istringstream is(os.str());
  std::string line;
  std::getline(is, line);  // header comment
  EXPECT_EQ(line.front(), '#');
  std::size_t rows = 0;
  while (std::getline(is, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, f.net.num_nodes());
}

// A ChurnEngine's clustering leaves cluster_of empty, and a clustering of
// a smaller network is short everywhere: write_layout rejects both instead
// of reading past the end of them.
TEST(IoLayout, RejectsClusteringThatDoesNotCoverNetwork) {
  const Fixture f(1604);
  const ChurnEngine engine(f.net.graph, 2, Pipeline::kAcLmst);
  ASSERT_TRUE(engine.clustering().cluster_of.empty());
  std::ostringstream os;
  EXPECT_THROW(
      write_layout(os, f.net, engine.clustering(), engine.backbone()),
      InvalidArgument);
  const Fixture smaller(1605, 30);
  EXPECT_THROW(write_layout(os, f.net, smaller.clustering, f.backbone),
               InvalidArgument);
}

TEST(IoNetwork, RoundTripPreservesTopology) {
  const Fixture f(1603);
  std::ostringstream os;
  write_network(os, f.net);
  std::istringstream is(os.str());
  const AdHocNetwork copy = read_network(is);
  EXPECT_EQ(copy.num_nodes(), f.net.num_nodes());
  EXPECT_DOUBLE_EQ(copy.radius, f.net.radius);
  EXPECT_EQ(copy.graph.edge_list(), f.net.graph.edge_list());
  // And the whole pipeline produces identical results on the copy.
  const Clustering c2 = khop_clustering(copy.graph, 2);
  EXPECT_EQ(c2.heads, f.clustering.heads);
}

TEST(IoNetwork, RejectsMalformedInput) {
  std::istringstream empty("");
  EXPECT_THROW(read_network(empty), InvalidArgument);
  std::istringstream bad_header("abc def ghi");
  EXPECT_THROW(read_network(bad_header), InvalidArgument);
  std::istringstream truncated("5 10.0 100.0\n1.0 2.0\n");
  EXPECT_THROW(read_network(truncated), InvalidArgument);
  std::istringstream zero_radius("2 0.0 100.0\n1 1\n2 2\n");
  EXPECT_THROW(read_network(zero_radius), InvalidArgument);
}

TEST(IoNetwork, RejectsInflatedHeaderCountWithoutAllocating) {
  // The count is never trusted for an allocation: it must fail as a clean
  // khop error, not std::bad_alloc or std::length_error.
  std::istringstream huge("1000000000000000 1.0 10");
  EXPECT_THROW(read_network(huge), InvalidArgument);
  std::istringstream huge_with_body("1000000000000000 1.0 10\n1 1\n2 2\n");
  EXPECT_THROW(read_network(huge_with_body), InvalidArgument);
  // In the id space but ~69 GB of positions: the short body decides.
  std::istringstream max_ids("4294967294 1.0 10\n1 1\n2 2\n");
  EXPECT_THROW(read_network(max_ids), InvalidArgument);
  std::istringstream negative("-1 1.0 10\n1 1\n");
  EXPECT_THROW(read_network(negative), InvalidArgument);
}

TEST(IoNetwork, RejectsPositionsSpreadBeyondADouble) {
  // Both coordinates are finite, but their span overflows to inf: a clean
  // InvalidArgument, not undefined behaviour or std::length_error.
  std::istringstream overflow("2 1 10\n-1e308 0\n1e308 0\n");
  EXPECT_THROW(read_network(overflow), InvalidArgument);
}

TEST(IoNetwork, RejectsTrailingGarbage) {
  const Fixture f(1611);
  std::ostringstream os;
  write_network(os, f.net);
  std::istringstream extra_token(os.str() + "garbage\n");
  EXPECT_THROW(read_network(extra_token), InvalidArgument);
  std::istringstream extra_position(os.str() + "1.0 2.0\n");
  EXPECT_THROW(read_network(extra_position), InvalidArgument);
  // Trailing whitespace, or none at all, is fine.
  std::istringstream spaced(os.str() + "\n  \n");
  EXPECT_EQ(read_network(spaced).num_nodes(), f.net.num_nodes());
  std::istringstream bare("2 5.0 10.0\n1 1\n2 2");
  EXPECT_EQ(read_network(bare).num_nodes(), 2u);
}

}  // namespace
}  // namespace khop
