#include "core/lp_formulation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/nested.hpp"
#include "graph/topology.hpp"
#include "util/error.hpp"

namespace poq::core {
namespace {

/// Spec over a generation graph with gamma = capacity on every edge.
SteadyStateSpec spec_from_graph(const graph::Graph& graph, double capacity) {
  SteadyStateSpec spec;
  spec.node_count = graph.node_count();
  for (const graph::Edge& edge : graph.edges()) {
    spec.generation_capacity.push_back(
        RatedPair{NodePair(edge.a(), edge.b()), capacity});
  }
  return spec;
}

TEST(SteadyStateLp, SigmaVariableCount) {
  SteadyStateSpec spec = spec_from_graph(graph::make_cycle(5), 1.0);
  const SteadyStateLp lp(spec);
  // n * C(n-1, 2) = 5 * 6 = 30.
  EXPECT_EQ(lp.sigma_variable_count(), 30u);
}

TEST(SteadyStateLp, TwoHopMinGeneration) {
  // Path 0-1-2, demand (0,2) at rate 1, D=1: the only way to serve the
  // demand is sigma_1({0,2}) = 1, costing one pair on each edge.
  SteadyStateSpec spec = spec_from_graph(graph::make_path(3), 10.0);
  spec.demand.push_back(RatedPair{NodePair(0, 2), 1.0});
  const SteadyStateLp lp(spec);
  const SteadyStateSolution solution =
      lp.solve(SteadyStateObjective::kMinTotalGeneration);
  ASSERT_EQ(solution.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(solution.total_generation, 2.0, 1e-5);
  EXPECT_LT(solution.max_violation, 1e-5);
  // The swap rate through node 1 must be >= the demand.
  double through_one = 0.0;
  for (const SwapRate& swap : solution.swap_rates) {
    if (swap.repeater == 1 && swap.pair == NodePair(0, 2)) through_one += swap.rate;
  }
  EXPECT_NEAR(through_one, 1.0, 1e-5);
}

TEST(SteadyStateLp, DistillationSquaresTwoHopCost) {
  // With uniform D, serving one unit of 2-hop demand needs D sigma and
  // D^2 generation per edge: total 2 D^2 (matches nested_raw_pair_cost).
  for (double d : {1.0, 2.0, 3.0}) {
    SteadyStateSpec spec = spec_from_graph(graph::make_path(3), 100.0);
    spec.demand.push_back(RatedPair{NodePair(0, 2), 1.0});
    spec.distillation = d;
    const SteadyStateLp lp(spec);
    const SteadyStateSolution solution =
        lp.solve(SteadyStateObjective::kMinTotalGeneration);
    ASSERT_EQ(solution.status, lp::SolveStatus::kOptimal);
    EXPECT_NEAR(solution.total_generation, nested_raw_pair_cost(2, d), 1e-4)
        << "D=" << d;
  }
}

TEST(SteadyStateLp, ThreeHopMatchesNestedRawCost) {
  SteadyStateSpec spec = spec_from_graph(graph::make_path(4), 100.0);
  spec.demand.push_back(RatedPair{NodePair(0, 3), 1.0});
  const SteadyStateLp lp(spec);
  const SteadyStateSolution solution =
      lp.solve(SteadyStateObjective::kMinTotalGeneration);
  ASSERT_EQ(solution.status, lp::SolveStatus::kOptimal);
  // D=1: three raw pairs, one per edge.
  EXPECT_NEAR(solution.total_generation, 3.0, 1e-5);
}

TEST(SteadyStateLp, QecThinningScalesGeneration) {
  SteadyStateSpec spec = spec_from_graph(graph::make_path(3), 100.0);
  spec.demand.push_back(RatedPair{NodePair(0, 2), 1.0});
  spec.qec_overhead = 4.0;
  const SteadyStateLp lp(spec);
  const SteadyStateSolution solution =
      lp.solve(SteadyStateObjective::kMinTotalGeneration);
  ASSERT_EQ(solution.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(solution.total_generation, 8.0, 1e-4);  // 4x the unthinned 2.0
}

TEST(SteadyStateLp, SurvivalLossScalesGeneration) {
  SteadyStateSpec spec = spec_from_graph(graph::make_path(3), 100.0);
  spec.demand.push_back(RatedPair{NodePair(0, 2), 1.0});
  spec.survival = 0.5;  // half of arrivals survive
  const SteadyStateLp lp(spec);
  const SteadyStateSolution solution =
      lp.solve(SteadyStateObjective::kMinTotalGeneration);
  ASSERT_EQ(solution.status, lp::SolveStatus::kOptimal);
  // Each constraint needs L*(g or sigma) >= departures: the edge rows need
  // g >= sigma / L and the demand row needs sigma >= c / L:
  // sigma = 2, g = 4 per edge -> total 8.
  EXPECT_NEAR(solution.total_generation, 8.0, 1e-4);
}

TEST(SteadyStateLp, InfeasibleWhenDemandExceedsCapacity) {
  SteadyStateSpec spec = spec_from_graph(graph::make_path(3), 0.5);
  spec.demand.push_back(RatedPair{NodePair(0, 2), 1.0});  // needs 1.0 per edge
  const SteadyStateLp lp(spec);
  const SteadyStateSolution solution =
      lp.solve(SteadyStateObjective::kMinTotalGeneration);
  EXPECT_EQ(solution.status, lp::SolveStatus::kInfeasible);
}

TEST(SteadyStateLp, MaxTotalConsumptionSaturatesCapacity) {
  // Cycle of 4 with unit capacities; two opposite demands can each be
  // served via two 2-hop routes. Total elementary supply 4, each unit of
  // consumption costs 2 elementary pairs: optimum total consumption 2.
  SteadyStateSpec spec = spec_from_graph(graph::make_cycle(4), 1.0);
  spec.demand.push_back(RatedPair{NodePair(0, 2), 5.0});
  spec.demand.push_back(RatedPair{NodePair(1, 3), 5.0});
  const SteadyStateLp lp(spec);
  const SteadyStateSolution solution =
      lp.solve(SteadyStateObjective::kMaxTotalConsumption);
  ASSERT_EQ(solution.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(solution.total_consumption, 2.0, 1e-5);
}

TEST(SteadyStateLp, MaxMinConsumptionIsFair) {
  // Same cycle; max-min must give each demand 1.0 rather than starving one.
  SteadyStateSpec spec = spec_from_graph(graph::make_cycle(4), 1.0);
  spec.demand.push_back(RatedPair{NodePair(0, 2), 5.0});
  spec.demand.push_back(RatedPair{NodePair(1, 3), 5.0});
  const SteadyStateLp lp(spec);
  const SteadyStateSolution solution =
      lp.solve(SteadyStateObjective::kMaxMinConsumption);
  ASSERT_EQ(solution.status, lp::SolveStatus::kOptimal);
  ASSERT_EQ(solution.consumption.size(), 2u);
  EXPECT_NEAR(solution.consumption[0].rate, 1.0, 1e-4);
  EXPECT_NEAR(solution.consumption[1].rate, 1.0, 1e-4);
}

TEST(SteadyStateLp, ConcurrentScaleMatchesHandAnalysis) {
  // See analysis in the formulation docs: alpha* = 1 for the unit cycle
  // with opposite unit demands.
  SteadyStateSpec spec = spec_from_graph(graph::make_cycle(4), 1.0);
  spec.demand.push_back(RatedPair{NodePair(0, 2), 1.0});
  spec.demand.push_back(RatedPair{NodePair(1, 3), 1.0});
  const SteadyStateLp lp(spec);
  const SteadyStateSolution solution =
      lp.solve(SteadyStateObjective::kMaxConcurrentScale);
  ASSERT_EQ(solution.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 1.0, 1e-5);
  EXPECT_NEAR(solution.consumption[0].rate, 1.0, 1e-5);
}

TEST(SteadyStateLp, MinMaxGenerationBalancesLoad) {
  // Path 0-1-2 with demand (0,2): any solution needs g >= 1 per edge
  // (D=1), so the min-max equals 1; a star detour cannot help on a path.
  SteadyStateSpec spec = spec_from_graph(graph::make_path(3), 10.0);
  spec.demand.push_back(RatedPair{NodePair(0, 2), 1.0});
  const SteadyStateLp lp(spec);
  const SteadyStateSolution solution =
      lp.solve(SteadyStateObjective::kMinMaxGeneration);
  ASSERT_EQ(solution.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 1.0, 1e-5);
}

TEST(SteadyStateLp, LexicographicMatchesMinGenerationOfMaxConsumption) {
  SteadyStateSpec spec = spec_from_graph(graph::make_cycle(4), 1.0);
  spec.demand.push_back(RatedPair{NodePair(0, 2), 5.0});
  spec.demand.push_back(RatedPair{NodePair(1, 3), 5.0});
  const SteadyStateLp lp(spec);
  const SteadyStateSolution solution = lp.solve_lexicographic();
  ASSERT_EQ(solution.status, lp::SolveStatus::kOptimal);
  // Max consumption 2.0 needs all 4 units of generation.
  EXPECT_NEAR(solution.total_consumption, 2.0, 1e-3);
  EXPECT_NEAR(solution.total_generation, 4.0, 1e-3);
}

TEST(SteadyStateLp, PathObliviousnessUsesAnyRepeater) {
  // Complete graph over 4 nodes with only edges (0,1),(1,2),(2,3),(3,0)
  // generating: demand (0,2) can route through 1 or 3; min generation is
  // indifferent, but the solution must be feasible and tight either way.
  SteadyStateSpec spec = spec_from_graph(graph::make_cycle(4), 10.0);
  spec.demand.push_back(RatedPair{NodePair(0, 2), 2.0});
  const SteadyStateLp lp(spec);
  const SteadyStateSolution solution =
      lp.solve(SteadyStateObjective::kMinTotalGeneration);
  ASSERT_EQ(solution.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(solution.total_generation, 4.0, 1e-4);
  double via_repeaters = 0.0;
  for (const SwapRate& swap : solution.swap_rates) {
    if (swap.pair == NodePair(0, 2)) {
      EXPECT_TRUE(swap.repeater == 1 || swap.repeater == 3);
      via_repeaters += swap.rate;
    }
  }
  EXPECT_NEAR(via_repeaters, 2.0, 1e-4);
}

// Regression: the torus formulation with D > 1 is massively degenerate and
// used to trap the simplex on a plateau at the optimum (no certificate
// within the iteration limit). Anti-degeneracy perturbation must solve it.
TEST(SteadyStateLp, DegeneratePlateauRegression) {
  SteadyStateSpec spec = spec_from_graph(graph::make_torus_grid(9), 20.0);
  spec.demand.push_back(RatedPair{NodePair(0, 4), 0.3});
  spec.demand.push_back(RatedPair{NodePair(1, 5), 0.2});
  spec.distillation = 2.0;
  const SteadyStateLp lp(spec);
  const SteadyStateSolution solution =
      lp.solve(SteadyStateObjective::kMinTotalGeneration);
  ASSERT_EQ(solution.status, lp::SolveStatus::kOptimal);
  // Both demands span 2 torus hops: raw cost 2 D^2 kappa each.
  EXPECT_NEAR(solution.total_generation, 8.0 * (0.3 + 0.2), 1e-4);
  EXPECT_LT(solution.max_violation, 1e-6);
}

TEST(SteadyStateLp, RejectsBadSpecs) {
  SteadyStateSpec tiny;
  tiny.node_count = 2;
  EXPECT_THROW(SteadyStateLp{tiny}, PreconditionError);

  SteadyStateSpec bad_qec = spec_from_graph(graph::make_cycle(4), 1.0);
  bad_qec.qec_overhead = 0.5;
  EXPECT_THROW(SteadyStateLp{bad_qec}, PreconditionError);

  SteadyStateSpec bad_gamma = spec_from_graph(graph::make_cycle(4), 1.0);
  bad_gamma.generation_capacity[0].rate = 0.0;
  EXPECT_THROW(SteadyStateLp{bad_gamma}, PreconditionError);

  // D is a finite overhead >= 1 and L a survival fraction in (0, 1]; an
  // input outside those ranges is refused instead of solved.
  const SteadyStateSpec valid = spec_from_graph(graph::make_cycle(4), 1.0);
  EXPECT_NO_THROW(SteadyStateLp{valid});
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double d : {0.5, 0.0, -1.0, inf, nan}) {
    SteadyStateSpec spec = valid;
    spec.distillation = d;
    EXPECT_THROW(SteadyStateLp{spec}, PreconditionError) << "D " << d;
  }
  for (const double l : {0.0, -1.0, 1.5, inf, nan}) {
    SteadyStateSpec spec = valid;
    spec.survival = l;
    EXPECT_THROW(SteadyStateLp{spec}, PreconditionError) << "L " << l;
  }
}

}  // namespace
}  // namespace poq::core
