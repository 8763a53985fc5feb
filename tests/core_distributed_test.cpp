#include "core/distributed.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/workload.hpp"
#include "graph/topology.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace poq::core {
namespace {

Workload grid_workload(std::size_t nodes, std::uint64_t seed) {
  util::Rng rng(seed);
  return make_uniform_workload(nodes, 10, 100000, rng);
}

DistributedConfig base_config() {
  DistributedConfig config;
  config.seed = 3;
  config.duration = 150.0;
  return config;
}

TEST(Distributed, ServesRequestsUnderLatency) {
  const graph::Graph graph = graph::make_torus_grid(16);
  const DistributedResult result =
      run_distributed(graph, grid_workload(16, 1), base_config());
  EXPECT_GT(result.requests_satisfied, 0u);
  EXPECT_GT(result.swaps, 0u);
  EXPECT_GT(result.pairs_generated, 0u);
  EXPECT_GT(result.control_messages, 0u);
  EXPECT_GT(result.control_bytes, result.control_messages);
}

TEST(Distributed, DeterministicForFixedSeed) {
  const graph::Graph graph = graph::make_torus_grid(16);
  const DistributedResult a =
      run_distributed(graph, grid_workload(16, 1), base_config());
  const DistributedResult b =
      run_distributed(graph, grid_workload(16, 1), base_config());
  EXPECT_EQ(a.requests_satisfied, b.requests_satisfied);
  EXPECT_EQ(a.swaps, b.swaps);
  EXPECT_EQ(a.stale_swaps, b.stale_swaps);
  EXPECT_EQ(a.consume_conflicts, b.consume_conflicts);
  EXPECT_EQ(a.control_bytes, b.control_bytes);
}

TEST(Distributed, NearZeroLatencyMeansFewStaleSwaps) {
  const graph::Graph graph = graph::make_torus_grid(16);
  DistributedConfig config = base_config();
  config.latency_per_hop = 1e-6;
  const DistributedResult result =
      run_distributed(graph, grid_workload(16, 2), config);
  ASSERT_GT(result.swaps, 0u);
  // With (near) instant control, beliefs track truth; stale decisions
  // should be rare.
  EXPECT_LT(result.stale_swap_fraction(), 0.05);
}

TEST(Distributed, HigherLatencyIncreasesStaleness) {
  const graph::Graph graph = graph::make_torus_grid(16);
  DistributedConfig fast = base_config();
  fast.latency_per_hop = 0.01;
  DistributedConfig slow = base_config();
  slow.latency_per_hop = 2.0;
  const DistributedResult quick_net =
      run_distributed(graph, grid_workload(16, 3), fast);
  const DistributedResult slow_net =
      run_distributed(graph, grid_workload(16, 3), slow);
  ASSERT_GT(quick_net.swaps, 0u);
  ASSERT_GT(slow_net.swaps, 0u);
  EXPECT_GT(slow_net.decision_view_age.mean(),
            quick_net.decision_view_age.mean());
  EXPECT_GE(slow_net.stale_swap_fraction() + 0.02,
            quick_net.stale_swap_fraction());
}

TEST(Distributed, FractionsWithinRange) {
  const graph::Graph graph = graph::make_torus_grid(16);
  const DistributedResult result =
      run_distributed(graph, grid_workload(16, 4), base_config());
  EXPECT_GE(result.stale_swap_fraction(), 0.0);
  EXPECT_LE(result.stale_swap_fraction(), 1.0);
  EXPECT_GE(result.conflict_fraction(), 0.0);
  EXPECT_LE(result.conflict_fraction(), 1.0);
}

TEST(Distributed, MoreReportingFreshensViews) {
  const graph::Graph graph = graph::make_torus_grid(16);
  DistributedConfig sparse = base_config();
  sparse.report_rate = 0.2;
  DistributedConfig dense = base_config();
  dense.report_rate = 4.0;
  const DistributedResult rare =
      run_distributed(graph, grid_workload(16, 5), sparse);
  const DistributedResult frequent =
      run_distributed(graph, grid_workload(16, 5), dense);
  ASSERT_GT(rare.swaps, 0u);
  ASSERT_GT(frequent.swaps, 0u);
  EXPECT_LT(frequent.decision_view_age.mean(), rare.decision_view_age.mean());
  EXPECT_GT(frequent.control_bytes, rare.control_bytes);
}

TEST(Distributed, ControlPlaneScalesSubQuadratically) {
  // Count rows travel as sparse CountUpdate messages to a node's believed
  // partners, not as dense n^2 view matrices to everyone. On a cycle
  // (constant degree) the per-run control traffic should grow roughly
  // linearly in n: quadrupling the nodes must stay far from the 16x a
  // quadratic broadcast would cost.
  const auto bytes_at = [](std::size_t nodes) {
    DistributedConfig config;
    config.seed = 9;
    config.duration = 60.0;
    const graph::Graph graph = graph::make_cycle(nodes);
    util::Rng rng(5);
    const Workload workload = make_uniform_workload(nodes, 10, 100000, rng);
    const DistributedResult result = run_distributed(graph, workload, config);
    EXPECT_GT(result.control_bytes, 0u) << "n=" << nodes;
    return static_cast<double>(result.control_bytes);
  };
  const double small = bytes_at(64);
  const double large = bytes_at(256);
  EXPECT_LT(large / small, 8.0)
      << "control bytes grew x" << (large / small)
      << " for 4x the nodes: the dense-broadcast regression is back";
}

TEST(Distributed, RejectsBadInputs) {
  const graph::Graph tiny(2);
  Workload workload;
  workload.pairs = {NodePair(0, 1)};
  workload.sequence = {0};
  EXPECT_THROW([&] { (void)run_distributed(tiny, workload, base_config()); }(),
               PreconditionError);
  const graph::Graph graph = graph::make_cycle(6);
  DistributedConfig negative = base_config();
  negative.latency_per_hop = -1.0;
  EXPECT_THROW([&] { (void)run_distributed(graph, workload, negative); }(),
               PreconditionError);
}

/// run_distributed derives its epoch count from duration / dt, so a negative,
/// NaN or infinite duration must be rejected up front.
void expect_duration_rejected(double duration) {
  const graph::Graph graph = graph::make_cycle(6);
  Workload workload;
  workload.pairs = {NodePair(0, 3)};
  workload.sequence = {0};
  DistributedConfig config = base_config();
  config.duration = duration;
  EXPECT_THROW((void)run_distributed(graph, workload, config), PreconditionError);
}

TEST(Distributed, RejectsNegativeDuration) { expect_duration_rejected(-5.0); }

TEST(Distributed, RejectsNanDuration) {
  expect_duration_rejected(std::numeric_limits<double>::quiet_NaN());
}

TEST(Distributed, RejectsInfiniteDuration) {
  expect_duration_rejected(std::numeric_limits<double>::infinity());
}

}  // namespace
}  // namespace poq::core
