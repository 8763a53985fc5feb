#include "core/hybrid.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/workload.hpp"
#include "graph/shortest_path.hpp"
#include "graph/topology.hpp"
#include "util/rng.hpp"

namespace poq::core {
namespace {

Workload workload_for(std::size_t nodes, std::size_t requests, std::uint64_t seed) {
  util::Rng rng(seed);
  return make_uniform_workload(nodes, std::min<std::size_t>(8, nodes), requests, rng);
}

TEST(Hybrid, CompletesOnCycle) {
  const graph::Graph graph = graph::make_cycle(10);
  const Workload workload = workload_for(10, 30, 1);
  HybridConfig config;
  config.base.seed = 5;
  const HybridResult result = run_hybrid(graph, workload, config);
  EXPECT_TRUE(result.base.completed);
  EXPECT_EQ(result.base.requests_satisfied, 30u);
}

TEST(Hybrid, AssistsBlockedRequests) {
  // On a sparse cycle with far consumer pairs the head request is usually
  // blocked at least once, so assists should trigger.
  const graph::Graph graph = graph::make_cycle(12);
  Workload workload;
  workload.pairs = {NodePair(0, 6), NodePair(2, 8), NodePair(4, 10)};
  workload.sequence = {0, 1, 2, 0, 1, 2, 0, 1, 2};
  HybridConfig config;
  config.base.seed = 9;
  const HybridResult result = run_hybrid(graph, workload, config);
  EXPECT_TRUE(result.base.completed);
  EXPECT_GT(result.assists_attempted, 0u);
}

TEST(Hybrid, NeverSlowerThanPureBalancingByMuch) {
  // Hybrid adds an extra way to satisfy the head request; round counts
  // should not regress beyond noise.
  const graph::Graph graph = graph::make_cycle(12);
  const Workload workload = workload_for(12, 40, 2);
  BalancingConfig base;
  base.seed = 11;
  const BalancingResult pure = run_balancing(graph, workload, base);
  HybridConfig config;
  config.base = base;
  const HybridResult hybrid = run_hybrid(graph, workload, config);
  ASSERT_TRUE(pure.completed);
  ASSERT_TRUE(hybrid.base.completed);
  EXPECT_LE(hybrid.base.rounds, pure.rounds + pure.rounds / 2 + 8);
}

TEST(Hybrid, AssistSwapsCountedInOverhead) {
  const graph::Graph graph = graph::make_cycle(12);
  Workload workload;
  workload.pairs = {NodePair(0, 6)};
  workload.sequence = {0, 0, 0, 0};
  HybridConfig config;
  config.base.seed = 13;
  const HybridResult result = run_hybrid(graph, workload, config);
  ASSERT_TRUE(result.base.completed);
  if (result.assists_succeeded > 0) {
    EXPECT_GT(result.assist_swaps, 0.0);
    // swaps_performed includes the assist swaps.
    EXPECT_GE(result.base.swaps_performed,
              static_cast<std::uint64_t>(result.assist_swaps));
  }
}

TEST(Hybrid, MaxAssistHopsZeroDisablesAssists) {
  const graph::Graph graph = graph::make_cycle(10);
  const Workload workload = workload_for(10, 20, 3);
  HybridConfig config;
  config.base.seed = 17;
  config.max_assist_hops = 0;
  const HybridResult result = run_hybrid(graph, workload, config);
  EXPECT_TRUE(result.base.completed);
  EXPECT_EQ(result.assists_succeeded, 0u);
}

TEST(Hybrid, WithDistillation) {
  const graph::Graph graph = graph::make_cycle(9);
  const Workload workload = workload_for(9, 15, 4);
  HybridConfig config;
  config.base.seed = 19;
  config.base.distillation = 2.0;
  config.base.max_rounds = 200000;
  const HybridResult result = run_hybrid(graph, workload, config);
  EXPECT_TRUE(result.base.completed);
}

// --- pinned trajectories -----------------------------------------------
// Exact values recorded from the implementation that routed every assist
// through graph::shortest_path over the live-pair graph (live_pair_graph
// below). The assist search may change shape, never these numbers.

struct HybridGolden {
  std::uint32_t rounds;
  std::uint64_t swaps;
  std::uint64_t assists_attempted;
  std::uint64_t assists_succeeded;
  double assist_swaps;
};

void expect_golden(const HybridResult& result, const HybridGolden& golden) {
  EXPECT_TRUE(result.base.completed);
  EXPECT_EQ(result.base.rounds, golden.rounds);
  EXPECT_EQ(result.base.swaps_performed, golden.swaps);
  EXPECT_EQ(result.assists_attempted, golden.assists_attempted);
  EXPECT_EQ(result.assists_succeeded, golden.assists_succeeded);
  EXPECT_EQ(result.assist_swaps, golden.assist_swaps);
}

TEST(HybridGolden, RandomGridDefaults) {
  util::Rng topology_rng(3);
  const graph::Graph graph = graph::make_random_connected_grid(25, topology_rng);
  util::Rng workload_rng(5);
  const Workload workload = make_uniform_workload(25, 12, 150, workload_rng);
  HybridConfig config;
  config.base.seed = 7;
  expect_golden(run_hybrid(graph, workload, config), {92, 1422, 90, 90, 148.0});
}

TEST(HybridGolden, CycleTwoHopAssistsWithDistillation) {
  util::Rng workload_rng(2);
  const Workload workload = make_uniform_workload(16, 8, 60, workload_rng);
  HybridConfig config;
  config.base.seed = 11;
  config.base.distillation = 1.5;
  config.max_assist_hops = 2;
  expect_golden(run_hybrid(graph::make_cycle(16), workload, config),
                {290, 2050, 276, 6, 9.0});
}

TEST(HybridGolden, CycleTwelveHopAssists) {
  util::Rng workload_rng(4);
  const Workload workload = make_uniform_workload(24, 10, 80, workload_rng);
  HybridConfig config;
  config.base.seed = 13;
  config.max_assist_hops = 12;
  expect_golden(run_hybrid(graph::make_cycle(24), workload, config),
                {67, 1177, 65, 65, 108.0});
}

// --- assist route search -------------------------------------------------

/// The live entanglement graph: one edge per pair with count >= 1.
graph::Graph live_pair_graph(const PairLedger& ledger) {
  graph::Graph result(ledger.node_count());
  for (NodeId x = 0; x < ledger.node_count(); ++x) {
    ledger.row(x).for_each([&](NodeId y, std::uint32_t) {
      if (y > x) result.add_edge(x, y);
    });
  }
  return result;
}

TEST(AssistRouter, MatchesShortestPathOnRandomLedgers) {
  // The reference: graph::shortest_path over the entanglement graph with
  // the direct pair removed, kept only when it has 2..max_hops edges.
  // Sparse and dense random ledgers, several hop limits, and one router
  // reused across queries (its scratch must not leak between searches).
  util::Rng rng(20260417);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 3 + rng.uniform_index(38);
    PairLedger ledger(n);
    const std::size_t adds = rng.uniform_index(3 * n + 1);
    for (std::size_t i = 0; i < adds; ++i) {
      const auto a = static_cast<NodeId>(rng.uniform_index(n));
      const auto b = static_cast<NodeId>(rng.uniform_index(n));
      if (a != b) ledger.add(a, b, 1 + static_cast<std::uint32_t>(rng.uniform_index(3)));
    }
    const graph::Graph live = live_pair_graph(ledger);
    for (const std::uint32_t max_hops :
         {0u, 1u, 2u, 3u, 5u, 8u, static_cast<std::uint32_t>(n)}) {
      AssistRouter router(n, max_hops);
      for (int query = 0; query < 6; ++query) {
        const auto a = static_cast<NodeId>(rng.uniform_index(n));
        const auto b = static_cast<NodeId>((a + 1 + rng.uniform_index(n - 1)) % n);
        const NodePair pair(a, b);
        graph::Graph reference = live;
        reference.remove_edge(pair.first, pair.second);
        const auto path = graph::shortest_path(reference, pair.first, pair.second);
        std::vector<NodeId> expected;
        if (path && path->size() >= 3 && path->size() - 1 <= max_hops) {
          expected = *path;
        }
        EXPECT_EQ(router.route(ledger, pair), expected)
            << "trial " << trial << " n=" << n << " max_hops=" << max_hops
            << " pair=(" << pair.first << ", " << pair.second << ")";
      }
    }
  }
}

}  // namespace
}  // namespace poq::core
