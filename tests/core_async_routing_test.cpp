#include "core/async_routing.hpp"

#include <gtest/gtest.h>

#include <cstdint>
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

AsyncRoutingConfig base_config() {
  AsyncRoutingConfig config;
  config.seed = 3;
  config.duration = 200.0;
  return config;
}

TEST(AsyncRouting, SatisfiesRequestsOnAWellSuppliedNetwork) {
  const graph::Graph graph = graph::make_torus_grid(16);
  AsyncRoutingConfig config = base_config();
  config.generation_rate = 2.0;
  const AsyncRoutingResult result =
      run_async_routing(graph, grid_workload(16, 1), config);
  EXPECT_GT(result.requests_arrived, 0u);
  EXPECT_GT(result.requests_satisfied, 0u);
  EXPECT_GT(result.satisfied_fraction(), 0.5);
  EXPECT_GT(result.pairs_generated, 0u);
  EXPECT_GT(result.pairs_consumed, 0u);
  // Latency counts at least the waiting epoch granularity, and every
  // satisfied request consumed at least one segment (none is degenerate
  // under make_uniform_workload).
  EXPECT_GT(result.request_latency.mean(), 0.0);
  EXPECT_GE(result.request_hops.mean(), 1.0);
}

TEST(AsyncRouting, DeterministicForFixedSeed) {
  const graph::Graph graph = graph::make_torus_grid(16);
  const AsyncRoutingResult a =
      run_async_routing(graph, grid_workload(16, 1), base_config());
  const AsyncRoutingResult b =
      run_async_routing(graph, grid_workload(16, 1), base_config());
  EXPECT_EQ(a.requests_satisfied, b.requests_satisfied);
  EXPECT_EQ(a.requests_dropped, b.requests_dropped);
  EXPECT_EQ(a.swaps, b.swaps);
  EXPECT_EQ(a.pairs_consumed, b.pairs_consumed);
  EXPECT_EQ(a.control_messages, b.control_messages);
  EXPECT_EQ(a.request_latency.mean(), b.request_latency.mean());
}

TEST(AsyncRouting, StarvedNetworkDropsEveryRequestOnTimeout) {
  // No pair generation at all: every token waits at its source until the
  // timeout expires. The request sequence is short enough (60 requests at
  // rate 0.5 arrive by t ~ 120) that the run outlasts the last arrival
  // plus the timeout, so nothing is left in flight at the end.
  const graph::Graph graph = graph::make_cycle(8);
  AsyncRoutingConfig config = base_config();
  config.generation_rate = 0.0;
  config.timeout = 20.0;
  config.duration = 400.0;
  util::Rng rng(2);
  const Workload workload = make_uniform_workload(8, 10, 60, rng);
  const AsyncRoutingResult result =
      run_async_routing(graph, workload, config);
  ASSERT_GT(result.requests_arrived, 0u);
  EXPECT_EQ(result.requests_satisfied, 0u);
  EXPECT_EQ(result.requests_dropped, result.requests_arrived);
  EXPECT_EQ(result.drop_fraction(), 1.0);
  EXPECT_EQ(result.swaps, 0u);
}

TEST(AsyncRouting, TighterTimeoutDropsMore) {
  const graph::Graph graph = graph::make_torus_grid(16);
  AsyncRoutingConfig patient = base_config();
  patient.generation_rate = 0.3;  // scarce: waiting actually happens
  patient.timeout = 80.0;
  AsyncRoutingConfig impatient = patient;
  impatient.timeout = 2.0;
  const AsyncRoutingResult relaxed =
      run_async_routing(graph, grid_workload(16, 3), patient);
  const AsyncRoutingResult strict =
      run_async_routing(graph, grid_workload(16, 3), impatient);
  ASSERT_GT(relaxed.requests_arrived, 0u);
  EXPECT_GE(strict.drop_fraction(), relaxed.drop_fraction());
  EXPECT_LE(strict.requests_satisfied, relaxed.requests_satisfied);
}

TEST(AsyncRouting, SwapsAndHandoffsAreConsistent) {
  const graph::Graph graph = graph::make_torus_grid(16);
  AsyncRoutingConfig config = base_config();
  config.generation_rate = 1.5;
  const AsyncRoutingResult result =
      run_async_routing(graph, grid_workload(16, 4), config);
  ASSERT_GT(result.requests_satisfied, 0u);
  // Every swap chains two consumed segments at a junction the token was
  // handed to, so neither can exceed the consumed-segment count.
  EXPECT_LE(result.swaps, result.pairs_consumed);
  EXPECT_LE(result.control_messages, result.pairs_consumed);
  EXPECT_GT(result.swaps, 0u);
}

TEST(AsyncRouting, ChunkedApplyKernelMatchesOneThread) {
  // A busy request stream keeps more junctions receiving handoffs in an
  // epoch than the belief grain, so the apply kernel splits. It dispatches
  // at most once an epoch: more chunks than epochs means that some
  // dispatch ran in several.
  const graph::Graph graph = graph::make_torus_grid(64);
  AsyncRoutingConfig config = base_config();
  config.arrival_rate = 20.0;
  config.generation_rate = 2.0;
  config.duration = 50.0;
  const AsyncRoutingResult serial =
      run_async_routing(graph, grid_workload(64, 5), config);
  config.tick.threads = 4;
  const AsyncRoutingResult chunked =
      run_async_routing(graph, grid_workload(64, 5), config);
  const auto epochs = static_cast<std::uint64_t>(config.duration / config.dt);
  EXPECT_GT(chunked.apply_load.chunks, epochs);
  EXPECT_EQ(chunked.apply_load.chunks, serial.apply_load.chunks);
  EXPECT_GT(serial.control_messages, 0u);
  EXPECT_EQ(chunked.requests_satisfied, serial.requests_satisfied);
  EXPECT_EQ(chunked.requests_dropped, serial.requests_dropped);
  EXPECT_EQ(chunked.swaps, serial.swaps);
  EXPECT_EQ(chunked.pairs_consumed, serial.pairs_consumed);
  EXPECT_EQ(chunked.control_messages, serial.control_messages);
  EXPECT_EQ(chunked.request_latency.mean(), serial.request_latency.mean());
}

TEST(AsyncRouting, RejectsBadInputs) {
  const graph::Graph one(1);
  Workload workload;
  workload.pairs = {NodePair(0, 1)};
  workload.sequence = {0};
  EXPECT_THROW(
      [&] { (void)run_async_routing(one, workload, base_config()); }(),
      PreconditionError);
  const graph::Graph graph = graph::make_cycle(6);
  AsyncRoutingConfig negative_latency = base_config();
  negative_latency.latency_per_hop = -0.5;
  EXPECT_THROW(
      [&] { (void)run_async_routing(graph, workload, negative_latency); }(),
      PreconditionError);
  AsyncRoutingConfig zero_dt = base_config();
  zero_dt.dt = 0.0;
  EXPECT_THROW([&] { (void)run_async_routing(graph, workload, zero_dt); }(),
               PreconditionError);
  AsyncRoutingConfig zero_timeout = base_config();
  zero_timeout.timeout = 0.0;
  EXPECT_THROW(
      [&] { (void)run_async_routing(graph, workload, zero_timeout); }(),
      PreconditionError);
}

/// run_async_routing derives its epoch count from duration / dt, so a negative,
/// NaN or infinite duration must be rejected up front.
void expect_duration_rejected(double duration) {
  const graph::Graph graph = graph::make_cycle(6);
  Workload workload;
  workload.pairs = {NodePair(0, 3)};
  workload.sequence = {0};
  AsyncRoutingConfig config = base_config();
  config.duration = duration;
  EXPECT_THROW((void)run_async_routing(graph, workload, config), PreconditionError);
}

TEST(AsyncRouting, RejectsNegativeDuration) { expect_duration_rejected(-5.0); }

TEST(AsyncRouting, RejectsNanDuration) {
  expect_duration_rejected(std::numeric_limits<double>::quiet_NaN());
}

TEST(AsyncRouting, RejectsInfiniteDuration) {
  expect_duration_rejected(std::numeric_limits<double>::infinity());
}

}  // namespace
}  // namespace poq::core
