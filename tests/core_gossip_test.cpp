#include "core/gossip.hpp"

#include <gtest/gtest.h>

#include "core/workload.hpp"
#include "graph/topology.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace poq::core {
namespace {

Workload workload_for(std::size_t nodes, std::size_t requests, std::uint64_t seed) {
  util::Rng rng(seed);
  return make_uniform_workload(nodes, std::min<std::size_t>(8, nodes), requests, rng);
}

TEST(Gossip, CompletesWithPartialKnowledge) {
  const graph::Graph graph = graph::make_cycle(10);
  const Workload workload = workload_for(10, 25, 1);
  GossipConfig config;
  config.base.seed = 3;
  const GossipResult result = run_gossip(graph, workload, config);
  EXPECT_TRUE(result.base.completed);
  EXPECT_EQ(result.base.requests_satisfied, 25u);
}

TEST(Gossip, AccountsControlTraffic) {
  const graph::Graph graph = graph::make_cycle(8);
  const Workload workload = workload_for(8, 15, 2);
  GossipConfig config;
  config.base.seed = 5;
  config.fanout = 2;
  const GossipResult result = run_gossip(graph, workload, config);
  ASSERT_TRUE(result.base.completed);
  EXPECT_GT(result.control_messages, 0u);
  EXPECT_GT(result.control_bytes, result.control_messages);  // > 1 byte each
  // fanout + optimistic peer messages per node per round.
  const std::uint64_t expected =
      static_cast<std::uint64_t>(result.base.rounds) * 8 * (2 + 1);
  EXPECT_EQ(result.control_messages, expected);
}

TEST(Gossip, NoOptimisticPeerReducesTraffic) {
  const graph::Graph graph = graph::make_cycle(8);
  const Workload workload = workload_for(8, 15, 3);
  GossipConfig with_peer;
  with_peer.base.seed = 7;
  GossipConfig without_peer = with_peer;
  without_peer.optimistic_peer = false;
  const GossipResult a = run_gossip(graph, workload, with_peer);
  const GossipResult b = run_gossip(graph, workload, without_peer);
  ASSERT_TRUE(a.base.completed);
  ASSERT_TRUE(b.base.completed);
  const double per_round_a =
      static_cast<double>(a.control_messages) / a.base.rounds;
  const double per_round_b =
      static_cast<double>(b.control_messages) / b.base.rounds;
  EXPECT_GT(per_round_a, per_round_b);
}

TEST(Gossip, ViewsAreStale) {
  const graph::Graph graph = graph::make_cycle(12);
  const Workload workload = workload_for(12, 20, 4);
  GossipConfig config;
  config.base.seed = 9;
  config.fanout = 1;  // slow rotation -> stale views
  const GossipResult result = run_gossip(graph, workload, config);
  ASSERT_TRUE(result.base.completed);
  EXPECT_GT(result.mean_view_age, 0.0);
}

TEST(Gossip, LargerFanoutFreshensViews) {
  const graph::Graph graph = graph::make_cycle(12);
  const Workload workload = workload_for(12, 30, 5);
  GossipConfig slow;
  slow.base.seed = 11;
  slow.fanout = 1;
  slow.optimistic_peer = false;
  GossipConfig fast = slow;
  fast.fanout = 6;
  const GossipResult a = run_gossip(graph, workload, slow);
  const GossipResult b = run_gossip(graph, workload, fast);
  ASSERT_TRUE(a.base.completed);
  ASSERT_TRUE(b.base.completed);
  EXPECT_LT(b.mean_view_age, a.mean_view_age);
}

TEST(Gossip, StillCompletesWithDistillation) {
  const graph::Graph graph = graph::make_cycle(9);
  const Workload workload = workload_for(9, 12, 6);
  GossipConfig config;
  config.base.seed = 13;
  config.base.distillation = 2.0;
  config.base.max_rounds = 200000;
  const GossipResult result = run_gossip(graph, workload, config);
  EXPECT_TRUE(result.base.completed);
}

TEST(Gossip, RejectsZeroFanout) {
  const graph::Graph graph = graph::make_cycle(8);
  const Workload workload = workload_for(8, 5, 7);
  GossipConfig config;
  config.fanout = 0;
  EXPECT_THROW([&] { (void)run_gossip(graph, workload, config); }(),
               PreconditionError);
}

// --- pinned trajectories -----------------------------------------------
// Exact values recorded from the implementation that kept every in-flight
// report in one pending list and rescanned it each round. The exchange
// may change shape, never these numbers.

struct GossipGolden {
  std::uint32_t rounds;
  double view_age;
  std::uint64_t control_messages;
  std::uint64_t control_bytes;
};

void expect_golden(const GossipResult& result, const GossipGolden& golden) {
  EXPECT_TRUE(result.base.completed);
  EXPECT_EQ(result.base.rounds, golden.rounds);
  EXPECT_EQ(result.mean_view_age, golden.view_age);
  EXPECT_EQ(result.control_messages, golden.control_messages);
  EXPECT_EQ(result.control_bytes, golden.control_bytes);
}

TEST(GossipGolden, RandomGridDefaults) {
  util::Rng topology_rng(3);
  const graph::Graph graph = graph::make_random_connected_grid(25, topology_rng);
  util::Rng workload_rng(5);
  const Workload workload = make_uniform_workload(25, 12, 150, workload_rng);
  GossipConfig config;
  config.base.seed = 7;
  expect_golden(run_gossip(graph, workload, config),
                {280, 4.5475409836065577, 21000, 1103607});
}

TEST(GossipGolden, CycleSlowLinksNoOptimisticPeer) {
  util::Rng workload_rng(2);
  const Workload workload = make_uniform_workload(16, 8, 60, workload_rng);
  GossipConfig config;
  config.base.seed = 11;
  config.latency_per_hop = 2.5;
  config.fanout = 1;
  config.optimistic_peer = false;
  expect_golden(run_gossip(graph::make_cycle(16), workload, config),
                {137, 10.120022434099832, 2192, 74688});
}

TEST(GossipGolden, CycleHalfRoundLatencyWideFanout) {
  util::Rng workload_rng(4);
  const Workload workload = make_uniform_workload(24, 10, 80, workload_rng);
  GossipConfig config;
  config.base.seed = 13;
  config.latency_per_hop = 0.5;
  config.fanout = 5;
  expect_golden(run_gossip(graph::make_cycle(24), workload, config),
                {145, 2.4781205164992826, 20880, 1046592});
}

}  // namespace
}  // namespace poq::core
