// Graph text serialization round trips and malformed-input rejection.
#include "graph/serialize.h"

#include <gtest/gtest.h>

#include "graph/generators.h"

namespace bdg {
namespace {

TEST(Serialize, RoundTripsEveryFamily) {
  for (const auto& [name, g] : standard_menagerie(9, 33)) {
    SCOPED_TRACE(name);
    const Graph back = graph_from_string(graph_to_string(g));
    EXPECT_EQ(back, g);
  }
}

TEST(Serialize, FormatIsStable) {
  Graph g(2);
  g.add_edge(0, 1);
  EXPECT_EQ(graph_to_string(g), "bdg1 2\n0: 1 0\n1: 0 0\n");
}

TEST(Serialize, EmptyGraph) {
  const Graph g;
  EXPECT_EQ(graph_from_string(graph_to_string(g)).n(), 0u);
}

TEST(Serialize, RejectsBadHeader) {
  EXPECT_THROW((void)graph_from_string("nope 2\n"), std::invalid_argument);
  EXPECT_THROW((void)graph_from_string(""), std::invalid_argument);
}

TEST(Serialize, RejectsTruncatedNodeList) {
  EXPECT_THROW((void)graph_from_string("bdg1 2\n0: 1 0\n"),
               std::invalid_argument);
}

TEST(Serialize, RejectsOutOfRangeTarget) {
  EXPECT_THROW((void)graph_from_string("bdg1 2\n0: 5 0\n1: 0 0\n"),
               std::invalid_argument);
}

TEST(Serialize, RejectsBrokenInvolution) {
  // 0's port 0 points at 1/0, but 1's port 0 points back at itself.
  EXPECT_THROW((void)graph_from_string("bdg1 2\n0: 1 0\n1: 1 0\n"),
               std::invalid_argument);
}

TEST(Serialize, RejectsWrongNodeLabel) {
  EXPECT_THROW((void)graph_from_string("bdg1 2\n7: 1 0\n1: 0 0\n"),
               std::invalid_argument);
}

TEST(Serialize, RejectsHugeNodeCountWithoutAllocatingIt) {
  // The header alone must not size anything: this is a truncated node
  // list, not a multi-exabyte allocation.
  EXPECT_THROW((void)graph_from_string("bdg1 4000000000000000000\n"),
               std::invalid_argument);
  EXPECT_THROW(
      (void)graph_from_string("bdg1 4000000000000000000\n0: 1 0\n1: 0 0\n"),
      std::invalid_argument);
}

TEST(Serialize, RejectsReversePortPastPortRange) {
  // 4294967296 would narrow to port 0 and pass the involution check.
  EXPECT_THROW(
      (void)graph_from_string("bdg1 2\n0: 1 4294967296\n1: 0 0\n"),
      std::invalid_argument);
  EXPECT_NO_THROW((void)graph_from_string("bdg1 2\n0: 1 0\n1: 0 0\n"));
}

TEST(Serialize, PreservesPortOrder) {
  Rng rng(4);
  const Graph g = shuffle_ports(make_grid(3, 3), rng);
  const Graph back = graph_from_string(graph_to_string(g));
  for (NodeId v = 0; v < g.n(); ++v)
    for (Port p = 0; p < g.degree(v); ++p)
      EXPECT_EQ(back.hop(v, p), g.hop(v, p));
}

}  // namespace
}  // namespace bdg
