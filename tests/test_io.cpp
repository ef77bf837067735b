// Unit tests for the interchange formats (DOT / layout / network).
#include <gtest/gtest.h>

#include <sstream>

#include "khop/common/error.hpp"
#include "khop/cds/cds.hpp"
#include "khop/io/export.hpp"
#include "khop/io/state.hpp"
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

TEST(IoState, ClusteringRoundTrip) {
  const Fixture f(1604);
  std::ostringstream os;
  write_clustering(os, f.clustering);
  std::istringstream is(os.str());
  const Clustering copy = read_clustering(is);
  EXPECT_EQ(copy.k, f.clustering.k);
  EXPECT_EQ(copy.heads, f.clustering.heads);
  EXPECT_EQ(copy.head_of, f.clustering.head_of);
  EXPECT_EQ(copy.dist_to_head, f.clustering.dist_to_head);
  EXPECT_EQ(copy.cluster_of, f.clustering.cluster_of);
  EXPECT_EQ(copy.election_rounds, f.clustering.election_rounds);
}

TEST(IoState, BackboneRoundTrip) {
  const Fixture f(1605);
  std::ostringstream os;
  write_backbone(os, f.backbone);
  std::istringstream is(os.str());
  const Backbone copy = read_backbone(is);
  EXPECT_EQ(copy.pipeline, f.backbone.pipeline);
  EXPECT_EQ(copy.heads, f.backbone.heads);
  EXPECT_EQ(copy.gateways, f.backbone.gateways);
  EXPECT_EQ(copy.virtual_links, f.backbone.virtual_links);
  EXPECT_EQ(copy.spec.neighbor_rule, f.backbone.spec.neighbor_rule);
  EXPECT_EQ(copy.spec.gateway, f.backbone.spec.gateway);
}

TEST(IoState, RestoredStateStillValidates) {
  const Fixture f(1606);
  std::ostringstream cs, bs;
  write_clustering(cs, f.clustering);
  write_backbone(bs, f.backbone);
  std::istringstream cis(cs.str()), bis(bs.str());
  const Clustering c = read_clustering(cis);
  const Backbone b = read_backbone(bis);
  EXPECT_TRUE(validate_k_cds(f.net.graph, c, b).empty());
}

TEST(IoState, RejectsMalformedState) {
  std::istringstream wrong_tag("not-a-clustering v1");
  EXPECT_THROW(read_clustering(wrong_tag), InvalidArgument);
  std::istringstream bad_k("khop-clustering v1\nk 0\n");
  EXPECT_THROW(read_clustering(bad_k), InvalidArgument);
  std::istringstream truncated(
      "khop-clustering v1\nk 2\nrounds 1\nnodes 3\nheads 1 0\n0 0\n");
  EXPECT_THROW(read_clustering(truncated), InvalidArgument);
  std::istringstream nonhead(
      "khop-clustering v1\nk 2\nrounds 1\nnodes 2\nheads 1 0\n0 0\n1 5\n");
  EXPECT_THROW(read_clustering(nonhead), InvalidArgument);
  std::istringstream bad_backbone("khop-backbone v1\npipeline 9\n");
  EXPECT_THROW(read_backbone(bad_backbone), InvalidArgument);
}

// Exercises a parse error and checks the message carries the document name
// and the 1-based line number of the offending token.
TEST(IoState, ErrorsReportLineNumbers) {
  std::istringstream nonhead(
      "khop-clustering v1\nk 2\nrounds 1\nnodes 2\nheads 1 0\n0 0\n1 5\n");
  try {
    read_clustering(nonhead);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("clustering: line 7"), std::string::npos) << what;
  }
}

TEST(IoState, RejectsTrailingGarbage) {
  const Fixture f(1607);
  std::ostringstream os;
  write_clustering(os, f.clustering);
  std::istringstream with_tail(os.str() + "extra\n");
  EXPECT_THROW(read_clustering(with_tail), InvalidArgument);

  std::ostringstream bs;
  write_backbone(bs, f.backbone);
  std::istringstream btail(bs.str() + "0\n");
  EXPECT_THROW(read_backbone(btail), InvalidArgument);
}

TEST(IoState, RejectsDuplicateHeads) {
  // heads list "0 0" repeats an id; v1 accepted this before hardening.
  std::istringstream dup(
      "khop-clustering v1\nk 2\nrounds 1\nnodes 3\nheads 2 0 0\n"
      "0 0\n0 1\n0 1\n");
  EXPECT_THROW(read_clustering(dup), InvalidArgument);
}

TEST(IoState, RejectsOutOfRangeIdsAndDistances) {
  // head id 7 with only 3 nodes
  std::istringstream big_head(
      "khop-clustering v1\nk 2\nrounds 1\nnodes 3\nheads 1 7\n");
  EXPECT_THROW(read_clustering(big_head), InvalidArgument);
  // member distance 9 with k = 2
  std::istringstream far(
      "khop-clustering v1\nk 2\nrounds 1\nnodes 2\nheads 1 0\n0 0\n0 9\n");
  EXPECT_THROW(read_clustering(far), InvalidArgument);
  // a head whose own distance is nonzero
  std::istringstream head_dist(
      "khop-clustering v1\nk 2\nrounds 1\nnodes 2\nheads 1 0\n0 1\n0 1\n");
  EXPECT_THROW(read_clustering(head_dist), InvalidArgument);
}

TEST(IoState, RejectsHeadAffiliatedElsewhere) {
  // head 1 is listed but its own row points at head 0 (distance 1 keeps
  // every per-row check happy).
  std::istringstream is(
      "khop-clustering v1\nk 2\nrounds 1\nnodes 2\nheads 2 0 1\n0 0\n0 1\n");
  EXPECT_THROW(read_clustering(is), InvalidArgument);
}

TEST(IoState, BackboneIdsRangeCheckedBeforeNarrowing) {
  // 2^32 + 1 must not alias head 1, and 2^32 - 1 is the invalid-node id.
  std::istringstream wrapped(
      "khop-backbone v1\npipeline 0\nspec 0 0 0\nheads 2 0 1\ngateways 0\n"
      "links 1\n0 4294967297\n");
  EXPECT_THROW(read_backbone(wrapped), InvalidArgument);
  std::istringstream invalid_head(
      "khop-backbone v1\npipeline 0\nspec 0 0 0\nheads 1 4294967295\n"
      "gateways 0\nlinks 0\n");
  EXPECT_THROW(read_backbone(invalid_head), InvalidArgument);
}

// Header counts are never trusted for an allocation: each inflated count
// below must fail as a clean khop error once the short body runs out, not
// as std::bad_alloc / std::length_error or a multi-GB resize.
TEST(IoState, ClusteringRejectsInflatedNodeCountWithoutAllocating) {
  for (const char* nodes : {"400000000", "4000000000"}) {
    std::istringstream is(std::string("khop-clustering v1\nk 2\nrounds 1\n") +
                          "nodes " + nodes + "\nheads 1 0\n0 0\n");
    EXPECT_THROW(read_clustering(is), InvalidArgument) << nodes;
  }
}

TEST(IoState, BackboneRejectsInflatedHeadCountWithoutAllocating) {
  std::istringstream is(
      "khop-backbone v1\npipeline 0\nspec 0 0 0\n"
      "heads 1000000000000000000 0 1\n");
  EXPECT_THROW(read_backbone(is), InvalidArgument);
}

TEST(IoState, BackboneRejectsInflatedLinkCountWithoutAllocating) {
  std::istringstream is(
      "khop-backbone v1\npipeline 0\nspec 0 0 0\nheads 2 0 1\ngateways 0\n"
      "links 4000000000000000000\n0 1\n");
  EXPECT_THROW(read_backbone(is), InvalidArgument);
}

TEST(IoState, V2ChecksumDetectsCorruption) {
  const Fixture f(1608);
  std::ostringstream os;
  write_clustering(os, f.clustering);
  std::string text = os.str();
  ASSERT_NE(text.find("khop-clustering v2"), std::string::npos);
  ASSERT_NE(text.find("crc32c "), std::string::npos);

  // Pristine v2 loads; any body byte flip fails the checksum.
  std::istringstream ok(text);
  EXPECT_NO_THROW(read_clustering(ok));
  const std::size_t body_pos = text.find("\nk ") + 1;
  text[body_pos + 2] ^= 0x01;  // mutate the k value in place
  std::istringstream bad(text);
  try {
    read_clustering(bad);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

TEST(IoState, V1StillReadable) {
  // A v2 writer output converted to v1 by stripping the trailer: the same
  // body must parse under the legacy header.
  const Fixture f(1609);
  std::ostringstream os;
  write_clustering(os, f.clustering);
  std::string text = os.str();
  const std::size_t trailer = text.rfind("crc32c ");
  ASSERT_NE(trailer, std::string::npos);
  text.erase(trailer);
  const std::size_t v2 = text.find("v2");
  ASSERT_NE(v2, std::string::npos);
  text.replace(v2, 2, "v1");
  std::istringstream is(text);
  const Clustering copy = read_clustering(is);
  EXPECT_EQ(copy.heads, f.clustering.heads);
  EXPECT_EQ(copy.head_of, f.clustering.head_of);
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
