#include "core/fidelity_sim.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/workload.hpp"
#include "graph/topology.hpp"
#include "sim/parallel_engine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace poq::core {
namespace {

Workload near_and_far_workload() {
  Workload workload;
  workload.pairs = {NodePair(0, 1), NodePair(0, 3), NodePair(2, 5)};
  for (int i = 0; i < 60; ++i) {
    workload.sequence.push_back(static_cast<std::uint32_t>(i % 3));
  }
  return workload;
}

FidelitySimConfig base_config() {
  FidelitySimConfig config;
  config.seed = 11;
  config.duration = 300.0;
  config.raw_fidelity = 0.92;
  config.memory_time_constant = 60.0;
  return config;
}

TEST(FidelitySim, SatisfiesRequestsOnCycle) {
  const graph::Graph graph = graph::make_cycle(8);
  const FidelitySimResult result =
      run_fidelity_sim(graph, near_and_far_workload(), base_config());
  EXPECT_GT(result.requests_satisfied, 0u);
  EXPECT_GT(result.pairs_generated, 0u);
  EXPECT_GT(result.swaps, 0u);
}

TEST(FidelitySim, ConsumedFidelityRespectsThreshold) {
  const graph::Graph graph = graph::make_cycle(8);
  const FidelitySimConfig config = base_config();
  const FidelitySimResult result =
      run_fidelity_sim(graph, near_and_far_workload(), config);
  ASSERT_GT(result.requests_satisfied, 0u);
  EXPECT_GE(result.consumed_fidelity.min(), config.app_fidelity - 1e-9);
  EXPECT_LE(result.consumed_fidelity.max(), 1.0);
}

TEST(FidelitySim, DeterministicForFixedSeed) {
  const graph::Graph graph = graph::make_cycle(8);
  const FidelitySimResult a =
      run_fidelity_sim(graph, near_and_far_workload(), base_config());
  const FidelitySimResult b =
      run_fidelity_sim(graph, near_and_far_workload(), base_config());
  EXPECT_EQ(a.requests_satisfied, b.requests_satisfied);
  EXPECT_EQ(a.swaps, b.swaps);
  EXPECT_EQ(a.pairs_decayed, b.pairs_decayed);
  EXPECT_EQ(a.distillations, b.distillations);
}

TEST(FidelitySim, ShortMemoryLosesMorePairs) {
  const graph::Graph graph = graph::make_cycle(8);
  FidelitySimConfig short_memory = base_config();
  short_memory.memory_time_constant = 8.0;
  FidelitySimConfig long_memory = base_config();
  long_memory.memory_time_constant = 200.0;
  const FidelitySimResult fragile =
      run_fidelity_sim(graph, near_and_far_workload(), short_memory);
  const FidelitySimResult robust =
      run_fidelity_sim(graph, near_and_far_workload(), long_memory);
  EXPECT_LT(fragile.realized_survival(), robust.realized_survival());
  EXPECT_LE(fragile.requests_satisfied, robust.requests_satisfied);
}

TEST(FidelitySim, SurvivalWithinUnitRange) {
  const graph::Graph graph = graph::make_cycle(8);
  const FidelitySimResult result =
      run_fidelity_sim(graph, near_and_far_workload(), base_config());
  EXPECT_GE(result.realized_survival(), 0.0);
  EXPECT_LE(result.realized_survival(), 1.0);
}

TEST(FidelitySim, DistillationRunsWhenEnabled) {
  const graph::Graph graph = graph::make_cycle(6);
  FidelitySimConfig config = base_config();
  config.app_fidelity = 0.93;  // above raw fidelity: forces distillation
  config.raw_fidelity = 0.90;
  const FidelitySimResult result =
      run_fidelity_sim(graph, near_and_far_workload(), config);
  EXPECT_GT(result.distillations + result.distillation_failures, 0u);
}

TEST(FidelitySim, DistillationDisabledMeansNone) {
  const graph::Graph graph = graph::make_cycle(6);
  FidelitySimConfig config = base_config();
  config.distillation_enabled = false;
  const FidelitySimResult result =
      run_fidelity_sim(graph, near_and_far_workload(), config);
  EXPECT_EQ(result.distillations, 0u);
  EXPECT_EQ(result.distillation_failures, 0u);
}

TEST(FidelitySim, FreshestPolicyBeatsOldestOnFarRequests) {
  // With aggressive decoherence, pairing the freshest pairs should deliver
  // at least as many far-request completions as draining stale pairs.
  const graph::Graph graph = graph::make_cycle(10);
  Workload far;
  far.pairs = {NodePair(0, 5)};
  far.sequence.assign(40, 0);
  FidelitySimConfig fresh = base_config();
  fresh.memory_time_constant = 25.0;
  fresh.policy = PairingPolicy::kFreshest;
  FidelitySimConfig old_first = fresh;
  old_first.policy = PairingPolicy::kOldest;
  const FidelitySimResult a = run_fidelity_sim(graph, far, fresh);
  const FidelitySimResult b = run_fidelity_sim(graph, far, old_first);
  EXPECT_GE(a.requests_satisfied + 2, b.requests_satisfied);  // allow noise
}

TEST(FidelitySim, RealizedOverheadAtLeastTwo) {
  // Every swap or distillation consumes two pairs for at most one output.
  const graph::Graph graph = graph::make_cycle(8);
  const FidelitySimResult result =
      run_fidelity_sim(graph, near_and_far_workload(), base_config());
  if (result.swaps + result.distillations > 0) {
    EXPECT_GE(result.realized_distillation_overhead(), 2.0);
  }
}

TEST(FidelitySim, RejectsBadConfig) {
  const graph::Graph graph = graph::make_cycle(6);
  FidelitySimConfig config = base_config();
  config.raw_fidelity = 0.5;
  config.usable_fidelity = 0.7;
  EXPECT_THROW(
      [&] { (void)run_fidelity_sim(graph, near_and_far_workload(), config); }(),
      PreconditionError);
  FidelitySimConfig zero = base_config();
  zero.duration = 0.0;
  EXPECT_THROW(
      [&] { (void)run_fidelity_sim(graph, near_and_far_workload(), zero); }(),
      PreconditionError);
}

/// The slice count is ceil(duration / dt), so a negative, NaN or
/// infinite duration must be rejected up front.
void expect_duration_rejected(double duration) {
  const graph::Graph graph = graph::make_cycle(6);
  FidelitySimConfig config = base_config();
  config.duration = duration;
  EXPECT_THROW((void)run_fidelity_sim(graph, near_and_far_workload(), config),
               PreconditionError);
}

TEST(FidelitySim, RejectsNegativeDuration) { expect_duration_rejected(-5.0); }

TEST(FidelitySim, RejectsNanDuration) {
  expect_duration_rejected(std::numeric_limits<double>::quiet_NaN());
}

TEST(FidelitySim, RejectsInfiniteDuration) {
  expect_duration_rejected(std::numeric_limits<double>::infinity());
}

TEST(FidelitySim, RejectsNonFiniteRates) {
  // dt = 0.25 / scan_rate: an infinite scan rate would make dt 0 and the
  // slice count infinite; a non-finite generation rate has no Poisson
  // draw.
  const graph::Graph graph = graph::make_cycle(6);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (const double rate : {kInf, kNan, -1.0}) {
    FidelitySimConfig config = base_config();
    config.generation_rate = rate;
    EXPECT_THROW((void)run_fidelity_sim(graph, near_and_far_workload(), config),
                 PreconditionError)
        << "generation rate " << rate;
  }
  for (const double rate : {kInf, kNan, 0.0}) {
    FidelitySimConfig config = base_config();
    config.scan_rate = rate;
    EXPECT_THROW((void)run_fidelity_sim(graph, near_and_far_workload(), config),
                 PreconditionError)
        << "scan rate " << rate;
  }
}

/// Bad target fidelities and memory constants are caught up front with
/// a message naming the knob — never deep in the run as an internal
/// invariant (an empty bucket's best fidelity 0 "meets" a target <= 0).
void expect_fidelity_rejected(FidelitySimConfig config, const std::string& knob) {
  const graph::Graph graph = graph::make_cycle(6);
  try {
    (void)run_fidelity_sim(graph, near_and_far_workload(), config);
    ADD_FAILURE() << knob << ": bad value accepted";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find(knob), std::string::npos)
        << "message does not name " << knob << ": " << error.what();
  } catch (const InvariantError& error) {
    ADD_FAILURE() << knob << ": failed inside the run: " << error.what();
  }
}

TEST(FidelitySim, RejectsBadFidelities) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (const double target : {kNan, 0.0, -1.0, 1.5}) {
    FidelitySimConfig config = base_config();
    config.app_fidelity = target;
    SCOPED_TRACE(testing::Message() << "app fidelity " << target);
    expect_fidelity_rejected(config, "app-fidelity");
  }
  for (const double memory : {kNan, 0.0, -1.0}) {
    FidelitySimConfig config = base_config();
    config.memory_time_constant = memory;
    SCOPED_TRACE(testing::Message() << "memory T " << memory);
    expect_fidelity_rejected(config, "memory-T");
  }
}

/// Every pair is created once (generated, a kept swap output, a distilled
/// output) and leaves once (consumed, a swap or distillation input,
/// decayed, purged by a crash) or is still stored at the end.
void expect_conserved(const FidelitySimResult& result) {
  EXPECT_EQ(result.pairs_generated + (result.swaps - result.swap_outputs_discarded) +
                result.distillations,
            result.requests_satisfied + 2 * result.swaps +
                2 * (result.distillations + result.distillation_failures) +
                result.pairs_decayed + result.faults.pairs_purged_by_faults +
                result.pairs_stored);
}

TEST(FidelitySim, ConservationLaw) {
  const graph::Graph graph = graph::make_cycle(8);
  FidelitySimConfig config = base_config();
  const FidelitySimResult distilled =
      run_fidelity_sim(graph, near_and_far_workload(), config);
  EXPECT_GT(distilled.distillations + distilled.distillation_failures, 0u);
  EXPECT_GT(distilled.pairs_decayed, 0u);
  expect_conserved(distilled);
  config.faults.node_mtbf = 15.0;
  config.faults.link_mtbf = 10.0;
  const FidelitySimResult faulty =
      run_fidelity_sim(graph, near_and_far_workload(), config);
  EXPECT_GT(faulty.faults.pairs_purged_by_faults, 0u);
  expect_conserved(faulty);
}

// The 33x33 torus splits all three of fidelity's chunked kernels at
// their grains: 2112 edges make two generate chunks, 1089 nodes make 18
// decide and 5 decohere chunks. Each kernel dispatches once per slice,
// so the three load records must count the same number of dispatches —
// and four threads must reproduce the one-thread run.
TEST(FidelitySim, ChunkedKernelsSplitAndMatchOneThread) {
  const graph::Graph graph = graph::make_torus_grid(1089);
  const auto chunks_of = [](std::size_t items, std::size_t grain) {
    return (items + grain - 1) / grain;
  };
  const std::size_t generate_chunks =
      chunks_of(graph.edge_count(), sim::grain::kGenerate);
  const std::size_t decide_chunks = chunks_of(1089, sim::grain::kDecide);
  const std::size_t decohere_chunks = chunks_of(1089, sim::grain::kDecohere);
  ASSERT_GT(generate_chunks, 1u);
  util::Rng rng(4);
  const Workload workload = make_uniform_workload(1089, 20, 200, rng);
  FidelitySimConfig config = base_config();
  config.duration = 8.0;
  const FidelitySimResult serial = run_fidelity_sim(graph, workload, config);
  config.tick.threads = 4;
  const FidelitySimResult chunked = run_fidelity_sim(graph, workload, config);
  const sim::PhaseTimers& phase = chunked.phase;
  const std::uint64_t dispatches = phase.generate_load.chunks / generate_chunks;
  EXPECT_GT(dispatches, 0u);
  EXPECT_EQ(phase.generate_load.chunks, dispatches * generate_chunks);
  EXPECT_EQ(phase.decide_load.chunks, dispatches * decide_chunks);
  EXPECT_EQ(phase.decohere_load.chunks, dispatches * decohere_chunks);
  EXPECT_GT(serial.swaps, 0u);
  EXPECT_EQ(chunked.pairs_generated, serial.pairs_generated);
  EXPECT_EQ(chunked.pairs_decayed, serial.pairs_decayed);
  EXPECT_EQ(chunked.swaps, serial.swaps);
  EXPECT_EQ(chunked.distillations, serial.distillations);
  EXPECT_EQ(chunked.requests_satisfied, serial.requests_satisfied);
  EXPECT_EQ(chunked.pairs_stored, serial.pairs_stored);
  EXPECT_EQ(chunked.consumed_fidelity.mean(), serial.consumed_fidelity.mean());
}

}  // namespace
}  // namespace poq::core
