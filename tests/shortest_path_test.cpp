#include "graph/shortest_path.hpp"

#include <gtest/gtest.h>

#include <type_traits>

#include "graph/topology.hpp"
#include "util/rng.hpp"

namespace poq::graph {
namespace {

// DistanceOracle keeps a pointer to its graph, so a temporary is refused.
static_assert(std::is_constructible_v<DistanceOracle, const Graph&>);
static_assert(std::is_constructible_v<DistanceOracle, const Graph&, std::size_t>);
static_assert(!std::is_constructible_v<DistanceOracle, Graph&&>);
static_assert(!std::is_constructible_v<DistanceOracle, Graph&&, std::size_t>);

TEST(ShortestPath, BfsDistancesOnPathGraph) {
  const Graph graph = make_path(6);
  const auto dist = bfs_distances(graph, 0);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(dist[v], v);
}

TEST(ShortestPath, UnreachableMarked) {
  Graph graph(4);
  graph.add_edge(0, 1);
  const auto dist = bfs_distances(graph, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(ShortestPath, PathEndpointsAndLength) {
  const Graph graph = make_cycle(8);
  const auto path = shortest_path(graph, 1, 5);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->front(), 1u);
  EXPECT_EQ(path->back(), 5u);
  EXPECT_EQ(path->size(), 5u);  // 4 hops
  for (std::size_t i = 0; i + 1 < path->size(); ++i) {
    EXPECT_TRUE(graph.has_edge((*path)[i], (*path)[i + 1]));
  }
}

TEST(ShortestPath, TrivialSelfPath) {
  const Graph graph = make_cycle(4);
  const auto path = shortest_path(graph, 2, 2);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 1u);
}

TEST(ShortestPath, NoPathReturnsNullopt) {
  Graph graph(4);
  graph.add_edge(0, 1);
  EXPECT_FALSE(shortest_path(graph, 0, 3).has_value());
}

TEST(ShortestPath, DeterministicTieBreak) {
  // Two equal-length routes 0-1-3 and 0-2-3; BFS visits ascending
  // neighbour ids, so 0-1-3 must win every time.
  Graph graph(4);
  graph.add_edge(0, 1);
  graph.add_edge(0, 2);
  graph.add_edge(1, 3);
  graph.add_edge(2, 3);
  const auto path = shortest_path(graph, 0, 3);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ((*path)[1], 1u);
}

TEST(ShortestPath, AllPairsMatchesSingleSource) {
  util::Rng rng(3);
  const Graph graph = make_random_connected_grid(16, rng);
  const auto all = all_pairs_distances(graph);
  for (NodeId u = 0; u < 16; ++u) {
    const auto single = bfs_distances(graph, u);
    EXPECT_EQ(all[u], single);
  }
}

TEST(ShortestPath, AllPairsSymmetric) {
  util::Rng rng(5);
  const Graph graph = make_random_connected_grid(25, rng);
  const auto all = all_pairs_distances(graph);
  for (NodeId u = 0; u < 25; ++u) {
    for (NodeId v = 0; v < 25; ++v) EXPECT_EQ(all[u][v], all[v][u]);
  }
}

TEST(ShortestPath, TriangleInequalityHolds) {
  util::Rng rng(7);
  const Graph graph = make_random_connected_grid(25, rng);
  const auto all = all_pairs_distances(graph);
  for (NodeId u = 0; u < 25; ++u) {
    for (NodeId v = 0; v < 25; ++v) {
      for (NodeId w = 0; w < 25; ++w) {
        EXPECT_LE(all[u][w], all[u][v] + all[v][w]);
      }
    }
  }
}

}  // namespace
}  // namespace poq::graph
