// sim::FaultPlan: the deterministic availability mask under scripted and
// stochastic churn. The contract the drivers lean on: advance() is a pure
// function of (seed, round, script), crashed lists come back sorted, edge
// availability is link-up AND both endpoints up, an all-defaults config
// is exactly "no faults", and the plan owns the degraded-episode and
// recovery bookkeeping the drivers only feed with deliveries and purges.
#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>
#include <vector>

#include "graph/graph.hpp"
#include "sim/fault_plan.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace poq::sim {
namespace {

using core::NodeId;

// FaultPlan keeps a reference to its graph, so a temporary is refused.
static_assert(std::is_constructible_v<FaultPlan, const graph::Graph&, const FaultConfig&,
                                      std::uint64_t>);
static_assert(!std::is_constructible_v<FaultPlan, graph::Graph&&, const FaultConfig&,
                                       std::uint64_t>);

/// 5-cycle: edges (0,1) (1,2) (2,3) (3,4) (4,0).
graph::Graph cycle5() {
  graph::Graph graph(5);
  for (NodeId x = 0; x < 5; ++x) {
    graph.add_edge(x, static_cast<NodeId>((x + 1) % 5));
  }
  return graph;
}

TEST(FaultPlan, DefaultConfigIsDisabled) {
  const FaultConfig config;
  EXPECT_FALSE(config.enabled());
  FaultConfig stochastic;
  stochastic.node_mtbf = 100.0;
  EXPECT_TRUE(stochastic.enabled());
  FaultConfig scripted;
  scripted.script.push_back({5, FaultEventKind::kNodeDown, 1, 0, 0, 1.0});
  EXPECT_TRUE(scripted.enabled());
}

TEST(FaultPlan, ScriptedNodeCrashAndRecovery) {
  const graph::Graph graph = cycle5();
  FaultConfig config;
  config.script.push_back({2, FaultEventKind::kNodeDown, 3, 0, 0, 1.0});
  config.script.push_back({5, FaultEventKind::kNodeUp, 3, 0, 0, 1.0});
  FaultPlan plan(graph, config, 7);

  EXPECT_TRUE(plan.advance(1).empty());
  EXPECT_TRUE(plan.node_up(3));
  EXPECT_FALSE(plan.degraded());

  const std::vector<NodeId>& crashed = plan.advance(2);
  ASSERT_EQ(crashed.size(), 1u);
  EXPECT_EQ(crashed[0], 3u);
  EXPECT_FALSE(plan.node_up(3));
  EXPECT_TRUE(plan.degraded());
  // Both incident edges (2,3) and (3,4) lose availability; the link
  // itself is still up.
  EXPECT_FALSE(plan.edge_up(2));
  EXPECT_FALSE(plan.edge_up(3));
  EXPECT_TRUE(plan.edge_up(0));
  EXPECT_TRUE(plan.any_edge_down());

  EXPECT_TRUE(plan.advance(3).empty());  // stays down, no new crash
  EXPECT_TRUE(plan.advance(4).empty());
  EXPECT_TRUE(plan.advance(5).empty());  // recovery is not a crash
  EXPECT_TRUE(plan.node_up(3));
  EXPECT_FALSE(plan.any_edge_down());
  EXPECT_EQ(plan.stats().node_crashes, 1u);
  EXPECT_EQ(plan.stats().degraded_rounds, 3u);
}

TEST(FaultPlan, ScriptedLinkDownMasksOnlyThatEdge) {
  const graph::Graph graph = cycle5();
  FaultConfig config;
  config.script.push_back({1, FaultEventKind::kLinkDown, 0, 4, 0, 1.0});
  FaultPlan plan(graph, config, 7);
  EXPECT_TRUE(plan.advance(1).empty());  // link faults purge nothing
  EXPECT_FALSE(plan.edge_up(4));         // edge (4,0), scripted either order
  for (std::size_t e = 0; e < 4; ++e) EXPECT_TRUE(plan.edge_up(e));
  EXPECT_TRUE(plan.node_up(4));
  EXPECT_TRUE(plan.node_up(0));
  EXPECT_EQ(plan.stats().link_downs, 1u);
}

TEST(FaultPlan, ScriptedRateFactorPersists) {
  const graph::Graph graph = cycle5();
  FaultConfig config;
  config.script.push_back({3, FaultEventKind::kRateFactor, 0, 0, 0, 0.25});
  config.script.push_back({6, FaultEventKind::kRateFactor, 0, 0, 0, 1.0});
  FaultPlan plan(graph, config, 7);
  plan.advance(1);
  EXPECT_DOUBLE_EQ(plan.rate_factor(), 1.0);
  plan.advance(3);
  EXPECT_DOUBLE_EQ(plan.rate_factor(), 0.25);
  plan.advance(4);  // persists until the restoring event
  EXPECT_DOUBLE_EQ(plan.rate_factor(), 0.25);
  EXPECT_TRUE(plan.degraded());
  plan.advance(6);
  EXPECT_DOUBLE_EQ(plan.rate_factor(), 1.0);
  EXPECT_FALSE(plan.degraded());
}

TEST(FaultPlan, StochasticChurnIsSeedDeterministic) {
  const graph::Graph graph = cycle5();
  FaultConfig config;
  config.node_mtbf = 8.0;
  config.node_mttr = 3.0;
  config.link_mtbf = 6.0;
  config.link_mttr = 2.0;
  config.rate_degradation = 0.5;

  const auto trajectory = [&](std::uint64_t seed) {
    FaultPlan plan(graph, config, seed);
    std::vector<std::uint64_t> out;
    for (std::uint64_t round = 1; round <= 200; ++round) {
      const std::vector<NodeId>& crashed = plan.advance(round);
      std::uint64_t mask = crashed.size();
      for (NodeId x = 0; x < 5; ++x) mask = mask * 2 + (plan.node_up(x) ? 1 : 0);
      for (std::size_t e = 0; e < 5; ++e) mask = mask * 2 + (plan.edge_up(e) ? 1 : 0);
      out.push_back(mask);
    }
    return out;
  };
  EXPECT_EQ(trajectory(11), trajectory(11));
  EXPECT_NE(trajectory(11), trajectory(12)) << "seed does not reach the streams";

  FaultPlan plan(graph, config, 11);
  for (std::uint64_t round = 1; round <= 200; ++round) {
    const std::vector<NodeId>& crashed = plan.advance(round);
    EXPECT_TRUE(std::is_sorted(crashed.begin(), crashed.end()));
    EXPECT_GT(plan.rate_factor(), 0.5 - 1e-12);
    EXPECT_LE(plan.rate_factor(), 1.0);
  }
  EXPECT_GT(plan.stats().node_crashes, 0u);
  EXPECT_GT(plan.stats().link_downs, 0u);
  EXPECT_EQ(plan.stats().rounds, 200u);
  EXPECT_GT(plan.stats().availability(), 0.0);
  EXPECT_LT(plan.stats().availability(), 1.0);
}

TEST(FaultPlan, ValidationRejectsBadScriptsAndParameters) {
  const graph::Graph graph = cycle5();
  {
    FaultConfig config;
    config.script.push_back({1, FaultEventKind::kNodeDown, 9, 0, 0, 1.0});
    EXPECT_THROW(FaultPlan(graph, config, 1), PreconditionError);
  }
  {
    FaultConfig config;  // (0,2) is a chord the cycle does not have
    config.script.push_back({1, FaultEventKind::kLinkDown, 0, 0, 2, 1.0});
    EXPECT_THROW(FaultPlan(graph, config, 1), PreconditionError);
  }
  {
    FaultConfig config;
    config.script.push_back({1, FaultEventKind::kRateFactor, 0, 0, 0, 1.5});
    EXPECT_THROW(FaultPlan(graph, config, 1), PreconditionError);
  }
  {
    FaultConfig config;
    config.node_mtbf = 10.0;
    config.node_mttr = 0.5;  // would recover faster than one round
    EXPECT_THROW(FaultPlan(graph, config, 1), PreconditionError);
  }
  {
    FaultConfig config;
    config.rate_degradation = 1.0;  // could zero the rate forever
    EXPECT_THROW(FaultPlan(graph, config, 1), PreconditionError);
  }
}

TEST(FaultPlan, AvailabilityTracksDowntimeExactly) {
  // One node of five down for 2 of 4 rounds, links untouched: per-round
  // availability is 9/10 while down, 1 otherwise.
  const graph::Graph graph = cycle5();
  FaultConfig config;
  config.script.push_back({2, FaultEventKind::kNodeDown, 0, 0, 0, 1.0});
  config.script.push_back({4, FaultEventKind::kNodeUp, 0, 0, 0, 1.0});
  FaultPlan plan(graph, config, 3);
  for (std::uint64_t round = 1; round <= 4; ++round) plan.advance(round);
  EXPECT_DOUBLE_EQ(plan.stats().availability(), (1.0 + 0.9 + 0.9 + 1.0) / 4.0);
  EXPECT_EQ(plan.stats().degraded_rounds, 2u);
}

TEST(FaultPlan, RecordsDeliveriesAndRecoveryOfOneEpisode) {
  // Node 2 is down over rounds 3-5; round 6 is the first clean round, so
  // the episode ends there. The delivery at round 4 lands under fault;
  // the one at round 8 closes the recovery clock (8 - 6 = 2); the one at
  // round 9 is an ordinary delivery.
  const graph::Graph graph = cycle5();
  FaultConfig config;
  config.script.push_back({3, FaultEventKind::kNodeDown, 2, 0, 0, 1.0});
  config.script.push_back({6, FaultEventKind::kNodeUp, 2, 0, 0, 1.0});
  FaultPlan plan(graph, config, 5);
  for (std::uint64_t round = 1; round <= 9; ++round) {
    for (const NodeId x : plan.advance(round)) {
      EXPECT_EQ(x, 2u);
      plan.record_purged(4);
    }
    if (round == 4 || round == 8 || round == 9) {
      plan.record_delivery(static_cast<double>(round));
    }
  }
  const FaultStats& stats = plan.stats();
  EXPECT_EQ(stats.delivered_under_fault, 1u);
  ASSERT_EQ(stats.time_to_recover.count(), 1u);
  EXPECT_EQ(stats.time_to_recover.min(), 2.0);
  EXPECT_EQ(stats.time_to_recover.max(), 2.0);
  EXPECT_EQ(stats.pairs_purged_by_faults, 4u);
  EXPECT_EQ(stats.degraded_rounds, 3u);
}

TEST(FaultPlan, EpisodeBookkeepingMatchesReferenceStateMachine) {
  // Random scripts and stochastic churn over 200 rounds, deliveries at
  // random times inside each round, and an episode clock that is not the
  // round (now = 0.5 * round + 3). The reference is the per-driver state
  // machine the plan replaced, fed only by degraded() after each advance.
  const graph::Graph graph = cycle5();
  util::Rng rng(2024);
  std::size_t recoveries = 0;
  for (int trial = 0; trial < 50; ++trial) {
    FaultConfig config;
    if (trial % 2 == 1) {
      config.node_mtbf = 40.0;
      config.node_mttr = 4.0;
      config.link_mtbf = 30.0;
      config.link_mttr = 3.0;
    }
    const std::size_t events = 1 + rng.uniform_index(30);
    for (std::size_t i = 0; i < events; ++i) {
      FaultEvent event;
      event.round = 1 + rng.uniform_index(200);
      event.kind = static_cast<FaultEventKind>(rng.uniform_index(5));
      event.node = static_cast<NodeId>(rng.uniform_index(5));
      event.a = static_cast<NodeId>(rng.uniform_index(5));
      event.b = static_cast<NodeId>((event.a + 1) % 5);
      event.factor = rng.bernoulli(0.5) ? 1.0 : 0.5;
      config.script.push_back(event);
    }
    FaultPlan plan(graph, config, static_cast<std::uint64_t>(trial));

    bool round_degraded = false;
    bool in_degraded_episode = false;
    bool awaiting_recovery = false;
    double episode_end = 0.0;
    std::uint64_t delivered_under_fault = 0;
    util::RunningStats time_to_recover;
    for (std::uint64_t round = 1; round <= 200; ++round) {
      const double now = 0.5 * static_cast<double>(round) + 3.0;
      plan.advance(round, now);
      round_degraded = plan.degraded();
      if (round_degraded) {
        in_degraded_episode = true;
      } else if (in_degraded_episode) {
        in_degraded_episode = false;
        awaiting_recovery = true;
        episode_end = now;
      }
      const std::size_t deliveries = rng.uniform_index(3);
      for (std::size_t d = 0; d < deliveries; ++d) {
        const double at = now + 0.5 * rng.uniform_double();
        plan.record_delivery(at);
        if (round_degraded) ++delivered_under_fault;
        if (awaiting_recovery) {
          time_to_recover.add(at - episode_end);
          awaiting_recovery = false;
        }
      }
    }
    const FaultStats& stats = plan.stats();
    EXPECT_EQ(stats.delivered_under_fault, delivered_under_fault);
    EXPECT_EQ(stats.time_to_recover.count(), time_to_recover.count());
    EXPECT_EQ(stats.time_to_recover.mean(), time_to_recover.mean());
    EXPECT_EQ(stats.time_to_recover.variance(), time_to_recover.variance());
    EXPECT_EQ(stats.time_to_recover.min(), time_to_recover.min());
    EXPECT_EQ(stats.time_to_recover.max(), time_to_recover.max());
    recoveries += time_to_recover.count();
  }
  EXPECT_GT(recoveries, 50u) << "the scripts must exercise the recovery clock";
}

}  // namespace
}  // namespace poq::sim
