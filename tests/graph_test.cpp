#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include "graph/connectivity.hpp"
#include "util/error.hpp"

namespace poq::graph {
namespace {

TEST(Graph, StartsEmpty) {
  Graph graph(4);
  EXPECT_EQ(graph.node_count(), 4u);
  EXPECT_EQ(graph.edge_count(), 0u);
  EXPECT_FALSE(graph.has_edge(0, 1));
}

TEST(Graph, AddEdgeIsSymmetric) {
  Graph graph(4);
  EXPECT_TRUE(graph.add_edge(2, 0));
  EXPECT_TRUE(graph.has_edge(0, 2));
  EXPECT_TRUE(graph.has_edge(2, 0));
  EXPECT_EQ(graph.edge_count(), 1u);
}

TEST(Graph, AddDuplicateEdgeIsNoop) {
  Graph graph(3);
  EXPECT_TRUE(graph.add_edge(0, 1));
  EXPECT_FALSE(graph.add_edge(1, 0));
  EXPECT_EQ(graph.edge_count(), 1u);
}

TEST(Graph, RejectsSelfLoop) {
  Graph graph(3);
  EXPECT_THROW(graph.add_edge(1, 1), PreconditionError);
}

TEST(Graph, RejectsOutOfRangeNode) {
  Graph graph(3);
  EXPECT_THROW(graph.add_edge(0, 3), PreconditionError);
  EXPECT_THROW((void)graph.has_edge(5, 0), PreconditionError);
}

TEST(Graph, NeighborsSortedAscending) {
  Graph graph(5);
  graph.add_edge(2, 4);
  graph.add_edge(2, 0);
  graph.add_edge(2, 3);
  const auto neighbors = graph.neighbors(2);
  ASSERT_EQ(neighbors.size(), 3u);
  EXPECT_EQ(neighbors[0], 0u);
  EXPECT_EQ(neighbors[1], 3u);
  EXPECT_EQ(neighbors[2], 4u);
  EXPECT_EQ(graph.degree(2), 3u);
}

TEST(Graph, RemoveEdge) {
  Graph graph(4);
  graph.add_edge(0, 1);
  graph.add_edge(1, 2);
  EXPECT_TRUE(graph.remove_edge(0, 1));
  EXPECT_FALSE(graph.has_edge(0, 1));
  EXPECT_EQ(graph.edge_count(), 1u);
  EXPECT_FALSE(graph.remove_edge(0, 1));
  EXPECT_EQ(graph.degree(1), 1u);
}

TEST(Graph, EdgeIndexTracksEdges) {
  Graph graph(4);
  graph.add_edge(0, 1);
  graph.add_edge(2, 3);
  EXPECT_EQ(graph.edge_index(1, 0).value(), 0u);
  EXPECT_EQ(graph.edge_index(3, 2).value(), 1u);
  EXPECT_FALSE(graph.edge_index(0, 3).has_value());
}

TEST(Graph, EdgesNormalized) {
  Graph graph(4);
  graph.add_edge(3, 1);
  const Edge& edge = graph.edges().front();
  EXPECT_EQ(edge.a(), 1u);
  EXPECT_EQ(edge.b(), 3u);
}

TEST(DisjointSets, BasicUnion) {
  DisjointSets sets(5);
  EXPECT_EQ(sets.set_count(), 5u);
  EXPECT_TRUE(sets.unite(0, 1));
  EXPECT_TRUE(sets.unite(1, 2));
  EXPECT_FALSE(sets.unite(0, 2));
  EXPECT_EQ(sets.set_count(), 3u);
  EXPECT_EQ(sets.find(0), sets.find(2));
  EXPECT_NE(sets.find(0), sets.find(3));
}

TEST(Connectivity, DetectsConnectedGraph) {
  Graph graph(4);
  graph.add_edge(0, 1);
  graph.add_edge(1, 2);
  graph.add_edge(2, 3);
  EXPECT_TRUE(is_connected(graph));
}

TEST(Connectivity, DetectsDisconnectedGraph) {
  Graph graph(4);
  graph.add_edge(0, 1);
  graph.add_edge(2, 3);
  EXPECT_FALSE(is_connected(graph));
}

TEST(Connectivity, SingleNodeIsConnected) {
  EXPECT_TRUE(is_connected(Graph(1)));
  EXPECT_TRUE(is_connected(Graph(0)));
}

}  // namespace
}  // namespace poq::graph
