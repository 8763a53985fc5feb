#include "core/balancing_sim.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <type_traits>

#include "core/gossip.hpp"
#include "core/hybrid.hpp"
#include "core/workload.hpp"
#include "graph/topology.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace poq::core {
namespace {

// BalancingSimulation keeps a reference to its graph, so a temporary is
// refused.
static_assert(std::is_constructible_v<BalancingSimulation, const graph::Graph&,
                                      const Workload&, const BalancingConfig&>);
static_assert(!std::is_constructible_v<BalancingSimulation, graph::Graph&&,
                                       const Workload&, const BalancingConfig&>);

Workload small_workload(std::size_t nodes, std::size_t pairs, std::size_t requests,
                        std::uint64_t seed) {
  util::Rng rng(seed);
  return make_uniform_workload(nodes, pairs, requests, rng);
}

TEST(BalancingSim, CompletesOnCycle) {
  const graph::Graph graph = graph::make_cycle(9);
  const Workload workload = small_workload(9, 6, 30, 1);
  BalancingConfig config;
  config.seed = 7;
  const BalancingResult result = run_balancing(graph, workload, config);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.requests_satisfied, 30u);
  EXPECT_GT(result.swaps_performed, 0u);
  EXPECT_GT(result.rounds, 0u);
}

TEST(BalancingSim, CompletesOnRandomGrid) {
  util::Rng topo_rng(3);
  const graph::Graph graph = graph::make_random_connected_grid(16, topo_rng);
  const Workload workload = small_workload(16, 10, 40, 2);
  BalancingConfig config;
  config.seed = 11;
  const BalancingResult result = run_balancing(graph, workload, config);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.requests_satisfied, 40u);
}

TEST(BalancingSim, OverheadAtLeastOneAgainstExactCost) {
  // The exact nested cost is a true lower bound on swaps per satisfied
  // request, so overhead measured against it must be >= 1.
  const graph::Graph graph = graph::make_cycle(9);
  const Workload workload = small_workload(9, 6, 40, 3);
  BalancingConfig config;
  config.seed = 13;
  const BalancingResult result = run_balancing(graph, workload, config);
  ASSERT_TRUE(result.completed);
  if (result.denominator_exact > 0.0) {
    EXPECT_GE(result.swap_overhead_exact(), 1.0);
  }
}

TEST(BalancingSim, DeterministicForFixedSeed) {
  const graph::Graph graph = graph::make_cycle(8);
  const Workload workload = small_workload(8, 5, 20, 4);
  BalancingConfig config;
  config.seed = 99;
  const BalancingResult a = run_balancing(graph, workload, config);
  const BalancingResult b = run_balancing(graph, workload, config);
  EXPECT_EQ(a.swaps_performed, b.swaps_performed);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.pairs_generated, b.pairs_generated);
  EXPECT_EQ(a.pairs_consumed, b.pairs_consumed);
}

TEST(BalancingSim, SeedChangesGenerationOrdering) {
  // Different seeds change stochastic choices (e.g. fractional rounding);
  // with integer rates the trajectory is actually identical, so use a
  // fractional generation rate to observe the difference.
  const graph::Graph graph = graph::make_cycle(8);
  const Workload workload = small_workload(8, 5, 20, 4);
  BalancingConfig config;
  config.generation_per_edge_per_round = 0.7;
  config.seed = 1;
  const BalancingResult a = run_balancing(graph, workload, config);
  config.seed = 2;
  const BalancingResult b = run_balancing(graph, workload, config);
  EXPECT_NE(a.pairs_generated, b.pairs_generated);
}

// generated + produced-by-swaps = consumed + destroyed-by-swaps + stored,
// with one pair produced per swap.
void expect_conserved(const BalancingResult& result) {
  EXPECT_GT(result.swaps_performed, 0u);
  EXPECT_EQ(result.pairs_produced_by_swaps, result.swaps_performed);
  EXPECT_EQ(result.pairs_generated + result.pairs_produced_by_swaps,
            result.pairs_consumed + result.pairs_spent_on_swaps + result.pairs_stored);
}

// The §4 run, and a gossip run: its stale-view swaps run through the same
// swap phase and are booked the same way.
TEST(BalancingSim, ConservationLaw) {
  const graph::Graph graph = graph::make_cycle(9);
  const Workload workload = small_workload(9, 6, 25, 5);
  BalancingConfig config;
  config.seed = 17;
  BalancingSimulation sim(graph, workload, config);
  const BalancingResult result = sim.run();
  EXPECT_EQ(result.pairs_stored, sim.ledger().total_pairs());
  expect_conserved(result);
  GossipConfig gossip;
  gossip.base = config;
  expect_conserved(run_gossip(graph, workload, gossip).base);
  // A hybrid run books its assists' spent and produced pairs too. An
  // assist does not produce one pair per swap, so only the balance holds.
  HybridConfig hybrid;
  hybrid.base = config;
  const HybridResult assisted = run_hybrid(graph, workload, hybrid);
  EXPECT_GT(assisted.assists_succeeded, 0u);
  EXPECT_EQ(assisted.base.pairs_generated + assisted.base.pairs_produced_by_swaps,
            assisted.base.pairs_consumed + assisted.base.pairs_spent_on_swaps +
                assisted.base.pairs_stored);
}

TEST(BalancingSim, HigherDistillationCostsMoreSwaps) {
  const graph::Graph graph = graph::make_cycle(9);
  const Workload workload = small_workload(9, 6, 25, 6);
  BalancingConfig config;
  config.seed = 19;
  config.distillation = 1.0;
  const BalancingResult d1 = run_balancing(graph, workload, config);
  config.distillation = 2.0;
  config.max_rounds = 200000;
  const BalancingResult d2 = run_balancing(graph, workload, config);
  ASSERT_TRUE(d1.completed);
  ASSERT_TRUE(d2.completed);
  EXPECT_GT(d2.swaps_performed, d1.swaps_performed);
}

// A fractional D makes every swap and consumption draw its rounding.
// Values recorded while the commit derived its keyed swap stream for
// every executed swap; it now derives it only when spend draws from it,
// with the same key, so these must not move. Threads 1 and 4 agree.
TEST(BalancingGolden, TorusFractionalDistillation) {
  for (const unsigned threads : {1u, 4u}) {
    util::Rng workload_rng(2);
    const Workload workload = make_uniform_workload(81, 20, 120, workload_rng);
    BalancingConfig config;
    config.seed = 11;
    config.distillation = 1.5;
    config.tick.threads = threads;
    const BalancingResult result =
        run_balancing(graph::make_torus_grid(81), workload, config);
    EXPECT_TRUE(result.completed) << "threads " << threads;
    EXPECT_EQ(result.rounds, 682u) << "threads " << threads;
    EXPECT_EQ(result.swaps_performed, 44899u) << "threads " << threads;
    EXPECT_EQ(result.pairs_generated, 110484u) << "threads " << threads;
    EXPECT_EQ(result.pairs_spent_on_swaps, 134412u) << "threads " << threads;
  }
}

TEST(BalancingSim, MaxRoundsGuardsStarvation) {
  // A star graph with tiny generation makes long requests starve; the
  // simulation must stop at max_rounds and report incomplete.
  const graph::Graph graph = graph::make_cycle(9);
  Workload workload = small_workload(9, 6, 1000, 7);
  BalancingConfig config;
  config.max_rounds = 10;
  const BalancingResult result = run_balancing(graph, workload, config);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.rounds, 10u);
}

TEST(BalancingSim, ZeroGenerationSatisfiesNothingFar) {
  const graph::Graph graph = graph::make_cycle(9);
  // Build a workload whose first request is definitely non-adjacent.
  Workload workload;
  workload.pairs = {NodePair(0, 4)};
  workload.sequence = {0};
  BalancingConfig config;
  config.generation_per_edge_per_round = 0.0;
  config.max_rounds = 50;
  const BalancingResult result = run_balancing(graph, workload, config);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.pairs_generated, 0u);
  EXPECT_EQ(result.swaps_performed, 0u);
}

TEST(BalancingSim, AdjacentRequestNeedsNoSwaps) {
  const graph::Graph graph = graph::make_cycle(9);
  Workload workload;
  workload.pairs = {NodePair(0, 1)};
  workload.sequence = {0};
  BalancingConfig config;
  const BalancingResult result = run_balancing(graph, workload, config);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.rounds, 1u);
  // A 1-hop request contributes s(1) = 0 to the denominator.
  EXPECT_EQ(result.denominator_paper, 0.0);
}

TEST(BalancingSim, HeadOfLineBlocking) {
  // Second request is adjacent and trivially satisfiable, but the first is
  // far: the second must not complete before the first.
  const graph::Graph graph = graph::make_cycle(12);
  Workload workload;
  workload.pairs = {NodePair(0, 6), NodePair(3, 4)};
  workload.sequence = {0, 1};
  BalancingConfig config;
  config.seed = 23;
  BalancingSimulation sim(graph, workload, config);
  while (!sim.finished()) {
    sim.step_round();
    // Request order means satisfied count can only be 0, 1, or 2 with
    // request 0 strictly first; head_request() tracks the sequence point.
    if (sim.result().requests_satisfied == 1) {
      EXPECT_EQ(sim.head_request(), 1u);
    }
  }
  EXPECT_TRUE(sim.result().completed);
}

TEST(BalancingSim, SwapRateKnobDoesNotBreakCompletion) {
  // The paper: "varying this rate did not significantly alter the
  // results" — at minimum, higher rates must still complete.
  const graph::Graph graph = graph::make_cycle(9);
  const Workload workload = small_workload(9, 6, 25, 8);
  for (std::uint32_t rate : {1u, 2u, 4u}) {
    BalancingConfig config;
    config.swaps_per_node_per_round = rate;
    config.seed = 29;
    const BalancingResult result = run_balancing(graph, workload, config);
    EXPECT_TRUE(result.completed) << "rate=" << rate;
  }
}

TEST(BalancingSim, RejectsDisconnectedConsumerPair) {
  graph::Graph graph(6);
  graph.add_edge(0, 1);
  graph.add_edge(1, 2);
  graph.add_edge(3, 4);
  graph.add_edge(4, 5);
  Workload workload;
  workload.pairs = {NodePair(0, 5)};
  workload.sequence = {0};
  BalancingConfig config;
  EXPECT_THROW(BalancingSimulation(graph, workload, config), PreconditionError);
}

// A non-finite D is refused with a message that names it. A finite but
// huge D runs: its ceil saturates, so no partner is ever eligible and no
// consumer pair ever holds enough pairs.
TEST(BalancingSim, RejectsNonFiniteDistillationAndRunsHugeOne) {
  const graph::Graph graph = graph::make_cycle(9);
  const Workload workload = small_workload(9, 6, 25, 5);
  BalancingConfig config;
  for (const double d : {std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    config.distillation = d;
    try {
      BalancingSimulation sim(graph, workload, config);
      ADD_FAILURE() << "D " << d << " accepted";
    } catch (const PreconditionError& error) {
      EXPECT_NE(std::string(error.what()).find("D (distillation)"), std::string::npos)
          << error.what();
    }
  }
  config.distillation = 1e300;
  config.max_rounds = 30;
  const BalancingResult result = run_balancing(graph, workload, config);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.swaps_performed, 0u);
  EXPECT_EQ(result.requests_satisfied, 0u);
  HybridConfig hybrid;
  hybrid.base = config;
  const HybridResult assisted = run_hybrid(graph, workload, hybrid);
  EXPECT_GT(assisted.assists_attempted, 0u);
  EXPECT_EQ(assisted.assists_succeeded, 0u);
  EXPECT_EQ(assisted.base.swaps_performed, 0u);
}

TEST(BalancingSim, RejectsUnrepresentableRates) {
  // Each edge adds floor(rate) pairs plus a rounding pair per round as one
  // uint32 amount; a non-finite arrival rate has no Poisson draw. Only the
  // constructor runs: no huge rate is ever simulated.
  const graph::Graph graph = graph::make_cycle(9);
  const Workload workload = small_workload(9, 6, 25, 5);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const auto rejects = [&](const BalancingConfig& config, const char* what) {
    try {
      BalancingSimulation sim(graph, workload, config);
      ADD_FAILURE() << what << " accepted";
    } catch (const PreconditionError& error) {
      EXPECT_NE(std::string(error.what()).find(what), std::string::npos)
          << error.what();
    }
  };
  for (const double rate : {5e9, 4294967295.0, 1e300, kInf, kNan, -1.0}) {
    SCOPED_TRACE(testing::Message() << "generation rate " << rate);
    BalancingConfig config;
    config.generation_per_edge_per_round = rate;
    rejects(config, "generation rate");
  }
  BalancingConfig largest;
  largest.generation_per_edge_per_round = 4294967294.5;  // floor + 1 == 2^32 - 1
  EXPECT_NO_THROW({ const BalancingSimulation sim(graph, workload, largest); });
  for (const double rate : {kInf, kNan, -1.0}) {
    SCOPED_TRACE(testing::Message() << "arrival rate " << rate);
    BalancingConfig config;
    config.arrival_rate = rate;
    rejects(config, "arrival rate");
  }
}

TEST(BalancingSim, WaitStatsPopulated) {
  const graph::Graph graph = graph::make_cycle(9);
  const Workload workload = small_workload(9, 6, 25, 9);
  BalancingConfig config;
  config.seed = 31;
  const BalancingResult result = run_balancing(graph, workload, config);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.head_wait_rounds.count(), 25u);
  EXPECT_GE(result.head_wait_rounds.max(), result.head_wait_rounds.mean());
}

}  // namespace
}  // namespace poq::core
