#include "core/planned_path.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>

#include "core/nested.hpp"
#include "core/workload.hpp"
#include "graph/topology.hpp"
#include "sim/parallel_engine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace poq::core {
namespace {

NestedDemand nested_demand(std::size_t path_edges, double distillation) {
  NestedDemand demand;
  compute_nested_demand(path_edges, distillation, demand);
  return demand;
}

TEST(NestedDemand, SingleEdge) {
  const NestedDemand demand = nested_demand(1, 2.0);
  ASSERT_EQ(demand.edge_raw_demand.size(), 1u);
  EXPECT_DOUBLE_EQ(demand.edge_raw_demand[0], 2.0);  // D raw per usable
  EXPECT_DOUBLE_EQ(demand.swap_count, 0.0);
}

TEST(NestedDemand, TwoEdgesUnitDistillation) {
  const NestedDemand demand = nested_demand(2, 1.0);
  EXPECT_DOUBLE_EQ(demand.swap_count, 1.0);
  EXPECT_DOUBLE_EQ(demand.edge_raw_demand[0], 1.0);
  EXPECT_DOUBLE_EQ(demand.edge_raw_demand[1], 1.0);
}

TEST(NestedDemand, TwoEdgesWithDistillation) {
  const NestedDemand demand = nested_demand(2, 2.0);
  // D raw top copies -> D swaps; each swap eats one usable per side and a
  // usable elementary costs D raw: D*D per edge.
  EXPECT_DOUBLE_EQ(demand.swap_count, 2.0);
  EXPECT_DOUBLE_EQ(demand.edge_raw_demand[0], 4.0);
  EXPECT_DOUBLE_EQ(demand.edge_raw_demand[1], 4.0);
}

TEST(NestedDemand, SwapCountMatchesExactRecurrence) {
  for (std::size_t hops = 1; hops <= 20; ++hops) {
    for (double d : {1.0, 1.5, 2.0, 3.0}) {
      const NestedDemand demand = nested_demand(hops, d);
      EXPECT_NEAR(demand.swap_count,
                  nested_swap_cost_exact(static_cast<std::uint32_t>(hops), d), 1e-9)
          << "hops=" << hops << " D=" << d;
    }
  }
}

TEST(NestedDemand, RawTotalMatchesClosedForm) {
  for (std::size_t hops = 1; hops <= 16; ++hops) {
    for (double d : {1.0, 2.0}) {
      const NestedDemand demand = nested_demand(hops, d);
      const double total = std::accumulate(demand.edge_raw_demand.begin(),
                                           demand.edge_raw_demand.end(), 0.0);
      EXPECT_NEAR(total, nested_raw_pair_cost(static_cast<std::uint32_t>(hops), d),
                  1e-9);
    }
  }
}

TEST(NestedDemand, RefillOverwritesThePreviousDemand) {
  NestedDemand demand;
  compute_nested_demand(7, 2.0, demand);
  compute_nested_demand(2, 1.0, demand);
  const NestedDemand fresh = nested_demand(2, 1.0);
  EXPECT_EQ(demand.edge_raw_demand, fresh.edge_raw_demand);
  EXPECT_DOUBLE_EQ(demand.swap_count, fresh.swap_count);
}

TEST(NestedDemand, UnitDistillationDemandsOnePerEdge) {
  const NestedDemand demand = nested_demand(7, 1.0);
  for (double edge : demand.edge_raw_demand) EXPECT_DOUBLE_EQ(edge, 1.0);
}

Workload cycle_workload(std::size_t nodes, std::size_t requests, std::uint64_t seed) {
  util::Rng rng(seed);
  return make_uniform_workload(nodes, std::min<std::size_t>(6, nodes), requests, rng);
}

TEST(PlannedPath, ConnectionOrientedCompletes) {
  const graph::Graph graph = graph::make_cycle(10);
  const Workload workload = cycle_workload(10, 25, 1);
  PlannedPathConfig config;
  const PlannedPathResult result = run_planned_path(graph, workload, config);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.requests_satisfied, 25u);
}

TEST(PlannedPath, OverheadEqualsExactOverPaperRatio) {
  // With window=1 and exclusive reservations, the baseline performs
  // exactly the nested schedule: swaps == sum of exact costs.
  const graph::Graph graph = graph::make_cycle(10);
  const Workload workload = cycle_workload(10, 25, 2);
  PlannedPathConfig config;
  config.distillation = 2.0;
  const PlannedPathResult result = run_planned_path(graph, workload, config);
  ASSERT_TRUE(result.completed);
  EXPECT_NEAR(result.swaps_performed, result.denominator_exact, 1e-6);
  EXPECT_NEAR(result.swap_overhead_exact(), 1.0, 1e-9);
  EXPECT_GE(result.swap_overhead_paper(), 1.0);
}

TEST(PlannedPath, ConnectionlessCompletes) {
  const graph::Graph graph = graph::make_torus_grid(16);
  const Workload workload = cycle_workload(16, 30, 3);
  PlannedPathConfig config;
  config.mode = PlannedPathMode::kConnectionless;
  config.window = 4;
  const PlannedPathResult result = run_planned_path(graph, workload, config);
  EXPECT_TRUE(result.completed);
}

TEST(PlannedPath, WiderWindowNoSlowerThanSerial) {
  const graph::Graph graph = graph::make_torus_grid(16);
  const Workload workload = cycle_workload(16, 40, 4);
  PlannedPathConfig serial;
  serial.mode = PlannedPathMode::kConnectionless;
  serial.window = 1;
  PlannedPathConfig wide = serial;
  wide.window = 8;
  const PlannedPathResult a = run_planned_path(graph, workload, serial);
  const PlannedPathResult b = run_planned_path(graph, workload, wide);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_LE(b.rounds, a.rounds);
}

TEST(PlannedPath, SwapsIdenticalAcrossModes) {
  // Both modes execute the same nested schedules; only timing differs.
  const graph::Graph graph = graph::make_cycle(12);
  const Workload workload = cycle_workload(12, 20, 5);
  PlannedPathConfig oriented;
  PlannedPathConfig connectionless;
  connectionless.mode = PlannedPathMode::kConnectionless;
  connectionless.window = 3;
  const PlannedPathResult a = run_planned_path(graph, workload, oriented);
  const PlannedPathResult b = run_planned_path(graph, workload, connectionless);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_NEAR(a.swaps_performed, b.swaps_performed, 1e-9);
}

TEST(PlannedPath, HigherDistillationTakesLonger) {
  const graph::Graph graph = graph::make_cycle(10);
  const Workload workload = cycle_workload(10, 15, 6);
  PlannedPathConfig config;
  config.distillation = 1.0;
  const PlannedPathResult d1 = run_planned_path(graph, workload, config);
  config.distillation = 3.0;
  const PlannedPathResult d3 = run_planned_path(graph, workload, config);
  ASSERT_TRUE(d1.completed);
  ASSERT_TRUE(d3.completed);
  EXPECT_GT(d3.rounds, d1.rounds);
  EXPECT_GT(d3.swaps_performed, d1.swaps_performed);
}

TEST(PlannedPath, MaxRoundsGuard) {
  const graph::Graph graph = graph::make_cycle(10);
  const Workload workload = cycle_workload(10, 50, 7);
  PlannedPathConfig config;
  config.generation_per_edge_per_round = 0.0;  // nothing ever completes
  config.max_rounds = 25;
  const PlannedPathResult result = run_planned_path(graph, workload, config);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.rounds, 25u);
  EXPECT_EQ(result.requests_satisfied, 0u);
}

TEST(PlannedPath, ServiceStatsPopulated) {
  const graph::Graph graph = graph::make_cycle(10);
  const Workload workload = cycle_workload(10, 20, 8);
  PlannedPathConfig config;
  const PlannedPathResult result = run_planned_path(graph, workload, config);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.service_rounds.count(), 20u);
}

TEST(PlannedPath, RejectsBadConfig) {
  const graph::Graph graph = graph::make_cycle(6);
  const Workload workload = cycle_workload(6, 5, 9);
  PlannedPathConfig config;
  config.window = 0;
  EXPECT_THROW([&] { (void)run_planned_path(graph, workload, config); }(),
               PreconditionError);
  config.window = 1;
  for (const double d : {std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    config.distillation = d;
    EXPECT_THROW([&] { (void)run_planned_path(graph, workload, config); }(),
                 PreconditionError)
        << "D " << d;
  }
}

// The 33x33 torus has 2112 edges, so every round's generate dispatch
// splits at the generation grain; four threads must reproduce the
// one-thread run.
TEST(PlannedPath, ChunkedGenerationMatchesOneThread) {
  const graph::Graph graph = graph::make_torus_grid(1089);
  ASSERT_GT(graph.edge_count(), sim::grain::kGenerate);
  const Workload workload = cycle_workload(1089, 60, 7);
  PlannedPathConfig config;
  config.mode = PlannedPathMode::kConnectionless;
  config.window = 4;
  const PlannedPathResult serial = run_planned_path(graph, workload, config);
  config.tick.threads = 4;
  const PlannedPathResult chunked = run_planned_path(graph, workload, config);
  ASSERT_TRUE(serial.completed);
  EXPECT_EQ(chunked.completed, serial.completed);
  EXPECT_EQ(chunked.rounds, serial.rounds);
  EXPECT_EQ(chunked.requests_satisfied, serial.requests_satisfied);
  EXPECT_EQ(chunked.pairs_generated, serial.pairs_generated);
  EXPECT_EQ(chunked.swaps_performed, serial.swaps_performed);
}

}  // namespace
}  // namespace poq::core
