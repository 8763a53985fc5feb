#include "graph/topology.hpp"

#include <gtest/gtest.h>

#include "graph/connectivity.hpp"
#include "graph/shortest_path.hpp"
#include "util/error.hpp"

namespace poq::graph {
namespace {

TEST(Topology, CycleStructure) {
  const Graph graph = make_cycle(6);
  EXPECT_EQ(graph.node_count(), 6u);
  EXPECT_EQ(graph.edge_count(), 6u);
  for (NodeId v = 0; v < 6; ++v) {
    EXPECT_EQ(graph.degree(v), 2u);
    EXPECT_TRUE(graph.has_edge(v, (v + 1) % 6));
  }
  EXPECT_TRUE(is_connected(graph));
}

TEST(Topology, CycleDiameterIsHalf) {
  const Graph graph = make_cycle(10);
  EXPECT_EQ(bfs_distances(graph, 0)[5], 5u);
  EXPECT_EQ(bfs_distances(graph, 0)[7], 3u);
}

TEST(Topology, PathStructure) {
  const Graph graph = make_path(5);
  EXPECT_EQ(graph.edge_count(), 4u);
  EXPECT_EQ(graph.degree(0), 1u);
  EXPECT_EQ(graph.degree(2), 2u);
  EXPECT_EQ(bfs_distances(graph, 0)[4], 4u);
}

TEST(Topology, StarStructure) {
  const Graph graph = make_star(7);
  EXPECT_EQ(graph.edge_count(), 6u);
  EXPECT_EQ(graph.degree(0), 6u);
  for (NodeId v = 1; v < 7; ++v) EXPECT_EQ(graph.degree(v), 1u);
}

TEST(Topology, CompleteStructure) {
  const Graph graph = make_complete(6);
  EXPECT_EQ(graph.edge_count(), 15u);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(graph.degree(v), 5u);
}

TEST(Topology, TorusGridStructure) {
  const Graph graph = make_torus_grid(25);
  EXPECT_EQ(graph.node_count(), 25u);
  EXPECT_EQ(graph.edge_count(), 50u);  // 2n edges on a torus
  for (NodeId v = 0; v < 25; ++v) EXPECT_EQ(graph.degree(v), 4u);
  EXPECT_TRUE(is_connected(graph));
}

TEST(Topology, TorusGridWraparound) {
  const Graph graph = make_torus_grid(25);
  // Node 0 = (0,0): right (0,1)=1, down (1,0)=5, wrap-left (0,4)=4,
  // wrap-up (4,0)=20.
  EXPECT_TRUE(graph.has_edge(0, 1));
  EXPECT_TRUE(graph.has_edge(0, 5));
  EXPECT_TRUE(graph.has_edge(0, 4));
  EXPECT_TRUE(graph.has_edge(0, 20));
}

TEST(Topology, TorusRejectsNonSquare) {
  EXPECT_THROW(make_torus_grid(24), PreconditionError);
  EXPECT_THROW(make_torus_grid(4), PreconditionError);
}

TEST(Topology, RandomConnectedGridIsConnectedSubgraphOfTorus) {
  util::Rng rng(3);
  const Graph torus = make_torus_grid(49);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph graph = make_random_connected_grid(49, rng);
    EXPECT_TRUE(is_connected(graph));
    EXPECT_LE(graph.edge_count(), torus.edge_count());
    // Must be a subgraph of the full torus.
    for (const Edge& edge : graph.edges()) {
      EXPECT_TRUE(torus.has_edge(edge.a(), edge.b()));
    }
    // Spanning needs at least n-1 edges.
    EXPECT_GE(graph.edge_count(), 48u);
  }
}

TEST(Topology, RandomConnectedGridIsSparse) {
  // "added uniformly at random ... until connected" should stop well short
  // of the full torus on average.
  util::Rng rng(11);
  double total_edges = 0;
  for (int trial = 0; trial < 20; ++trial) {
    total_edges += static_cast<double>(make_random_connected_grid(25, rng).edge_count());
  }
  EXPECT_LT(total_edges / 20.0, 50.0);  // below the full 2n = 50
  EXPECT_GE(total_edges / 20.0, 24.0);  // at least a spanning tree
}

TEST(Topology, ErdosRenyiConnectedFlag) {
  util::Rng rng(5);
  const Graph graph = make_erdos_renyi(30, 0.3, rng, /*force_connected=*/true);
  EXPECT_TRUE(is_connected(graph));
}

TEST(Topology, ErdosRenyiZeroProbabilityEmpty) {
  util::Rng rng(5);
  const Graph graph = make_erdos_renyi(10, 0.0, rng);
  EXPECT_EQ(graph.edge_count(), 0u);
}

TEST(Topology, ErdosRenyiFullProbabilityComplete) {
  util::Rng rng(5);
  const Graph graph = make_erdos_renyi(10, 1.0, rng);
  EXPECT_EQ(graph.edge_count(), 45u);
}

TEST(Topology, WattsStrogatzPreservesEdgeCount) {
  util::Rng rng(7);
  const Graph graph = make_watts_strogatz(20, 2, 0.3, rng);
  // n*k edges from the lattice construction (rewired or kept, minus rare
  // collisions where a rewire target already existed).
  EXPECT_GE(graph.edge_count(), 35u);
  EXPECT_LE(graph.edge_count(), 40u);
}

TEST(Topology, WattsStrogatzZeroBetaIsLattice) {
  util::Rng rng(7);
  const Graph graph = make_watts_strogatz(12, 2, 0.0, rng);
  EXPECT_EQ(graph.edge_count(), 24u);
  for (NodeId v = 0; v < 12; ++v) EXPECT_EQ(graph.degree(v), 4u);
}

TEST(Topology, BarabasiAlbertDegreesAndConnectivity) {
  util::Rng rng(9);
  const Graph graph = make_barabasi_albert(50, 2, rng);
  EXPECT_TRUE(is_connected(graph));
  // Every arrival adds exactly m edges.
  EXPECT_EQ(graph.edge_count(), 2u + (50u - 3u) * 2u);
  for (NodeId v = 0; v < 50; ++v) EXPECT_GE(graph.degree(v), 1u);
}

TEST(Topology, FamilyDispatchProducesConnectedGraphs) {
  util::Rng rng(13);
  for (const TopologyFamily family :
       {TopologyFamily::kCycle, TopologyFamily::kRandomGrid, TopologyFamily::kFullGrid,
        TopologyFamily::kErdosRenyi, TopologyFamily::kWattsStrogatz,
        TopologyFamily::kBarabasiAlbert}) {
    const Graph graph = make_topology(family, 25, rng);
    EXPECT_TRUE(is_connected(graph)) << family_name(family);
    EXPECT_EQ(graph.node_count(), 25u) << family_name(family);
  }
}

TEST(Topology, FamilyParamsOverrideDefaults) {
  util::Rng rng(13);
  TopologyParams params;
  params.ws_k = 3;
  params.ws_beta = 0.0;
  // WS with beta=0 is the pure ring lattice: exactly n*k edges.
  const Graph ws = make_topology(TopologyFamily::kWattsStrogatz, 20, rng, params);
  EXPECT_EQ(ws.edge_count(), 20u * 3u);
  params = TopologyParams{};
  params.ba_m = 1;
  // BA with m=1 grows a tree: n-1 edges.
  const Graph ba = make_topology(TopologyFamily::kBarabasiAlbert, 20, rng, params);
  EXPECT_EQ(ba.edge_count(), 19u);
  params = TopologyParams{};
  params.er_p = 1.0;
  const Graph er = make_topology(TopologyFamily::kErdosRenyi, 10, rng, params);
  EXPECT_EQ(er.edge_count(), 45u);  // complete graph
  // Defaults unchanged when no params are passed.
  EXPECT_EQ(make_topology(TopologyFamily::kWattsStrogatz, 20, rng,
                          TopologyParams{})
                .node_count(),
            20u);
}

TEST(Topology, ParamAwareMinimumNodes) {
  TopologyParams params;
  params.ws_k = 4;
  EXPECT_EQ(min_topology_nodes(TopologyFamily::kWattsStrogatz, params), 9u);
  params = TopologyParams{};
  params.ba_m = 6;
  EXPECT_EQ(min_topology_nodes(TopologyFamily::kBarabasiAlbert, params), 7u);
  // The default-parameter overload is unchanged.
  EXPECT_EQ(min_topology_nodes(TopologyFamily::kWattsStrogatz), 5u);
  EXPECT_EQ(min_topology_nodes(TopologyFamily::kBarabasiAlbert), 3u);
}

TEST(Topology, FamilyNamesDistinct) {
  EXPECT_EQ(family_name(TopologyFamily::kCycle), "cycle");
  EXPECT_EQ(family_name(TopologyFamily::kRandomGrid), "random-grid");
  EXPECT_EQ(family_name(TopologyFamily::kFullGrid), "full-grid");
}

}  // namespace
}  // namespace poq::graph
