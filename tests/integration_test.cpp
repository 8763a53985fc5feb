// Cross-module integration and model-based property tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/balancing_sim.hpp"
#include "core/lp_formulation.hpp"
#include "core/workload.hpp"
#include "graph/topology.hpp"
#include "util/rng.hpp"

namespace poq {
namespace {

// ---------------------------------------------------------------------------
// The §3 LP is the asymptotic ceiling for the §4 protocol: the simulated
// balancer's sustained consumption rate can never exceed the LP's maximum
// concurrent scale (the simulator also pays swap-rate limits the LP
// ignores, so the bound holds with margin).
TEST(Integration, SimulatedThroughputRespectsLpCeiling) {
  const graph::Graph graph = graph::make_cycle(6);

  // Demands: three pairs at distance 2 requested round-robin.
  const std::vector<core::NodePair> demand_pairs = {
      core::NodePair(0, 2), core::NodePair(2, 4), core::NodePair(4, 0)};

  core::SteadyStateSpec spec;
  spec.node_count = 6;
  for (const graph::Edge& edge : graph.edges()) {
    spec.generation_capacity.push_back(
        core::RatedPair{core::NodePair(edge.a(), edge.b()), 1.0});
  }
  for (const core::NodePair& pair : demand_pairs) {
    spec.demand.push_back(core::RatedPair{pair, 1.0});
  }
  const core::SteadyStateLp lp(spec);
  const core::SteadyStateSolution ceiling =
      lp.solve(core::SteadyStateObjective::kMaxConcurrentScale);
  ASSERT_EQ(ceiling.status, lp::SolveStatus::kOptimal);
  // 6 unit edges; each distance-2 consumption costs 2 elementary pairs:
  // total rate 3*alpha*2 <= 6 => alpha <= 1.
  EXPECT_NEAR(ceiling.objective, 1.0, 1e-5);

  core::Workload workload;
  workload.pairs = demand_pairs;
  for (int i = 0; i < 100000; ++i) {
    workload.sequence.push_back(static_cast<std::uint32_t>(i % 3));
  }
  core::BalancingConfig config;
  config.seed = 5;
  config.max_rounds = 4000;
  const core::BalancingResult result = core::run_balancing(graph, workload, config);
  const double per_pair_rate = static_cast<double>(result.requests_satisfied) /
                               3.0 / static_cast<double>(result.rounds);
  EXPECT_LE(per_pair_rate, ceiling.objective + 0.05);
  EXPECT_GT(per_pair_rate, 0.0);
}

// The LP's minimum generation for a pinned demand is a true lower bound on
// what the simulator consumes per satisfied request (raw pairs per unit of
// demand), again because the simulator is strictly less efficient.
TEST(Integration, SimulatedGenerationPerRequestAboveLpMinimum) {
  const graph::Graph graph = graph::make_cycle(6);
  const core::NodePair demand(0, 3);  // distance 3

  core::SteadyStateSpec spec;
  spec.node_count = 6;
  for (const graph::Edge& edge : graph.edges()) {
    spec.generation_capacity.push_back(
        core::RatedPair{core::NodePair(edge.a(), edge.b()), 10.0});
  }
  spec.demand.push_back(core::RatedPair{demand, 1.0});
  const core::SteadyStateLp lp(spec);
  const core::SteadyStateSolution optimum =
      lp.solve(core::SteadyStateObjective::kMinTotalGeneration);
  ASSERT_EQ(optimum.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(optimum.total_generation, 3.0, 1e-5);  // one raw pair per hop

  core::Workload workload;
  workload.pairs = {demand};
  workload.sequence.assign(2000, 0);
  core::BalancingConfig config;
  config.seed = 9;
  config.max_rounds = 3000;
  const core::BalancingResult result = core::run_balancing(graph, workload, config);
  ASSERT_GT(result.requests_satisfied, 0u);
  const double generation_per_request =
      static_cast<double>(result.pairs_generated) /
      static_cast<double>(result.requests_satisfied);
  // The balancer can only be less efficient than the LP optimum. (It
  // banks unconsumed inventory, so the measured ratio overshoots.)
  EXPECT_GE(generation_per_request, optimum.total_generation - 1e-6);
}

// ---------------------------------------------------------------------------
// Graph mutation fuzz against a std::set reference.
TEST(Integration, GraphMatchesReferenceModel) {
  util::Rng rng(321);
  const graph::NodeId n = 12;
  graph::Graph graph(n);
  std::set<std::pair<graph::NodeId, graph::NodeId>> model;

  const auto key = [](graph::NodeId a, graph::NodeId b) {
    return std::make_pair(std::min(a, b), std::max(a, b));
  };

  for (int op = 0; op < 3000; ++op) {
    auto a = static_cast<graph::NodeId>(rng.uniform_index(n));
    auto b = static_cast<graph::NodeId>(rng.uniform_index(n));
    if (a == b) continue;
    if (rng.bernoulli(0.6)) {
      EXPECT_EQ(graph.add_edge(a, b), model.insert(key(a, b)).second);
    } else {
      EXPECT_EQ(graph.remove_edge(a, b), model.erase(key(a, b)) > 0);
    }
    if (op % 100 == 0) {
      EXPECT_EQ(graph.edge_count(), model.size());
      for (graph::NodeId v = 0; v < n; ++v) {
        std::size_t expected_degree = 0;
        for (const auto& edge : model) {
          if (edge.first == v || edge.second == v) ++expected_degree;
        }
        EXPECT_EQ(graph.degree(v), expected_degree);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The full round-based pipeline completes on every topology family.
class FamilyCompletionSweep
    : public ::testing::TestWithParam<graph::TopologyFamily> {};

TEST_P(FamilyCompletionSweep, BalancingCompletesEverywhere) {
  util::Rng rng(7);
  const graph::Graph graph = graph::make_topology(GetParam(), 16, rng);
  util::Rng workload_rng = rng.fork(1);
  const core::Workload workload =
      core::make_uniform_workload(16, 10, 40, workload_rng);
  core::BalancingConfig config;
  config.seed = 13;
  const core::BalancingResult result = core::run_balancing(graph, workload, config);
  EXPECT_TRUE(result.completed) << graph::family_name(GetParam());
  if (result.denominator_exact > 0.0) {
    EXPECT_GE(result.swap_overhead_exact(), 1.0) << graph::family_name(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, FamilyCompletionSweep,
    ::testing::Values(graph::TopologyFamily::kCycle,
                      graph::TopologyFamily::kRandomGrid,
                      graph::TopologyFamily::kFullGrid,
                      graph::TopologyFamily::kErdosRenyi,
                      graph::TopologyFamily::kWattsStrogatz,
                      graph::TopologyFamily::kBarabasiAlbert));

}  // namespace
}  // namespace poq
