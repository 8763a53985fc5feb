// The swap hot path: every decide is computed from scratch, so round
// trajectories are a pure function of the spec — bit-identical at every
// threads setting, checked against threads 1 on randomized frames and
// round by round — and the steady-state round allocates nothing on the
// heap after warm-up.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/balancing_sim.hpp"
#include "core/gossip.hpp"
#include "core/hybrid.hpp"
#include "core/maxmin_balancer.hpp"
#include "core/workload.hpp"
#include "graph/topology.hpp"
#include "scenario/protocol.hpp"
#include "sim/network_state.hpp"
#include "util/rng.hpp"

// --- allocation counter -----------------------------------------------
// Global operator new/delete overrides counting every heap allocation in
// the test binary. The hot-path test warms a simulation up, snapshots the
// counter, and asserts that steady-state rounds allocate nothing.
//
// GCC cannot see that the malloc-backed new and the free-backed delete
// below are a matched pair once it inlines both sides of a container's
// lifetime into one test body, so it flags the override itself.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

// TSan's runtime allocates behind the program's back (interceptors,
// shadow bookkeeping), so heap-silence assertions only hold uninstrumented.
#if defined(__SANITIZE_THREAD__)
#define POQ_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define POQ_UNDER_TSAN 1
#endif
#endif

namespace {
std::atomic<std::uint64_t> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants size to be a multiple of the alignment.
  const std::size_t rounded =
      (std::max<std::size_t>(size, 1) + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace poq::scenario {
namespace {

std::string run_dump(ScenarioSpec spec, std::int64_t threads) {
  spec.knobs["threads"] = threads;
  // to_json(false): phase_ms.* wall-clock is outside the contract.
  return registry().run(spec.protocol, spec).to_json(false).dump(2);
}

/// Randomized scenario frames drawn from a fixed meta-seed: topology
/// family, size, rates, distillation, and per-protocol knobs all vary.
/// Every size is above the decide grain (64 nodes), so the decide kernel
/// runs in more than one chunk.
ScenarioSpec fuzz_spec(const std::string& protocol, util::Rng& fuzz) {
  ScenarioSpec spec;
  spec.protocol = protocol;
  spec.topology = fuzz.bernoulli(0.5) ? "random-grid" : "cycle";
  const std::size_t sizes[] = {81, 100, 121};
  spec.nodes = sizes[fuzz.uniform_index(3)];
  spec.consumer_pairs = 6 + fuzz.uniform_index(10);
  spec.requests = 20 + fuzz.uniform_index(30);
  spec.seed = 1 + fuzz.uniform_index(1000);
  spec.knobs["max-rounds"] = std::int64_t{500};
  const double rates[] = {0.05, 0.3, 1.0, 1.6};
  spec.knobs["generation-rate"] = rates[fuzz.uniform_index(4)];
  const double distillations[] = {1.0, 1.5, 2.0};
  spec.knobs["distillation"] = distillations[fuzz.uniform_index(3)];
  if (protocol == "gossip") {
    spec.knobs["fanout"] = static_cast<std::int64_t>(1 + fuzz.uniform_index(3));
    spec.knobs["latency"] = fuzz.bernoulli(0.5) ? 1.0 : 2.0;
  }
  return spec;
}

TEST(HotPathDeterminism, FuzzFramesMatchSerialReference) {
  // protocols {balancing, gossip, hybrid} x threads {2,8} on randomized
  // frames: every setting must reproduce the threads 1 run bit for bit
  // (for hybrid, with the assist's ledger mutations between decides).
  util::Rng fuzz(0xD1E7);
  const std::vector<std::string> protocols = {"balancing", "gossip",
                                              "hybrid"};
  for (int trial = 0; trial < 3; ++trial) {
    for (const std::string& protocol : protocols) {
      const ScenarioSpec spec = fuzz_spec(protocol, fuzz);
      const std::string reference = run_dump(spec, 1);
      for (const std::int64_t threads : {2, 8}) {
        EXPECT_EQ(run_dump(spec, threads), reference)
            << protocol << " trial " << trial << " diverged at threads="
            << threads << "\nspec: " << spec.to_json().dump(2);
      }
    }
  }
}

TEST(HotPathDeterminism, SparseSteadyStateMatchesSerialReference) {
  // A near-quiescent regime: rare generation events on a larger grid and
  // a long horizon, plus a fractional distillation so commit-time
  // rounding draws stay exercised.
  ScenarioSpec spec;
  spec.protocol = "balancing";
  spec.topology = "random-grid";
  spec.nodes = 100;
  spec.consumer_pairs = 20;
  spec.requests = 5000;
  spec.seed = 7;
  spec.knobs["max-rounds"] = std::int64_t{4000};
  spec.knobs["generation-rate"] = 0.02;
  spec.knobs["distillation"] = 1.5;
  EXPECT_EQ(run_dump(spec, 8), run_dump(spec, 1));
}

// --- lockstep round trajectories --------------------------------------

/// The nonzero entries of the count matrix.
std::string ledger_dump(const core::PairLedger& ledger) {
  std::string out;
  const auto n = static_cast<core::NodeId>(ledger.node_count());
  for (core::NodeId x = 0; x < n; ++x) {
    ledger.row(x).for_each([&](core::NodeId y, std::uint32_t count) {
      if (y > x) out += std::to_string(y) + ":" + std::to_string(count) + ",";
    });
    out += ';';
  }
  return out;
}

TEST(HotPathDeterminism, RoundTrajectoriesMatchSerialReference) {
  // Stronger than end-metrics equality: the full count matrix must match
  // the threads 1 run after every single round, so a divergence cannot
  // cancel out later. 81 nodes split the decide kernel in two.
  util::Rng topology_rng(3);
  const graph::Graph graph = graph::make_random_connected_grid(81, topology_rng);
  util::Rng workload_rng(5);
  const core::Workload workload =
      core::make_uniform_workload(81, 20, 100000, workload_rng);
  core::BalancingConfig config;
  config.generation_per_edge_per_round = 0.4;
  config.seed = 11;
  config.tick.threads = 2;
  core::BalancingConfig serial_config = config;
  serial_config.tick.threads = 1;
  core::BalancingSimulation sharded(graph, workload, config);
  core::BalancingSimulation serial(graph, workload, serial_config);
  for (int round = 0; round < 400; ++round) {
    sharded.step_round();
    serial.step_round();
    ASSERT_EQ(ledger_dump(sharded.ledger()), ledger_dump(serial.ledger()))
        << "count matrices diverged at round " << round;
    ASSERT_EQ(sharded.result().swaps_performed,
              serial.result().swaps_performed)
        << "swap counts diverged at round " << round;
  }
}

// --- zero-allocation steady state -------------------------------------

TEST(HotPathAllocations, SteadyStateRoundAllocatesNothing) {
  // After warm-up, a balancing round on the sharded engine — generation
  // (fractional rate: batched keyed streams exercised), decide, serial
  // commit, consumption — must not touch the heap: all
  // per-round scratch is pre-sized, the CSR partner arena mutates in
  // place, and the pool recycles its job allocation. 49 nodes make one
  // decide chunk (the inline path); 81 nodes split the decide kernel, so
  // at two threads it goes through the dynamic work-stealing dispatch
  // (chunks claimed off the atomic cursor) and that path is held to the
  // same zero-allocation contract.
#ifdef POQ_UNDER_TSAN
  GTEST_SKIP() << "the TSan runtime allocates behind the program's back, "
                  "so a heap-silence assertion is meaningless under it";
#endif
  for (const unsigned threads : {1u, 2u}) {
    for (const std::size_t nodes : {49u, 81u}) {
      util::Rng topology_rng(3);
      const graph::Graph graph =
          graph::make_random_connected_grid(nodes, topology_rng);
      util::Rng workload_rng(5);
      const core::Workload workload =
          core::make_uniform_workload(nodes, 20, 100000, workload_rng);
      core::BalancingConfig config;
      config.generation_per_edge_per_round = 0.5;
      config.seed = 9;
      config.tick.threads = threads;
      core::BalancingSimulation sim(graph, workload, config);
      for (int round = 0; round < 300; ++round) sim.step_round();
      const std::uint64_t before =
          g_allocation_count.load(std::memory_order_relaxed);
      for (int round = 0; round < 200; ++round) sim.step_round();
      const std::uint64_t after =
          g_allocation_count.load(std::memory_order_relaxed);
      EXPECT_EQ(after - before, 0u)
          << (after - before) << " allocations in 200 steady-state rounds at "
          << "threads=" << threads << " nodes=" << nodes;
    }
  }
}

/// Heap allocations of one full run of `run` (hybrid or gossip) capped at
/// `max_rounds` on a backlog too long to finish, so the run lasts exactly
/// that many rounds.
template <typename Config, typename Run>
std::uint64_t full_run_allocations(unsigned threads, std::uint32_t max_rounds,
                                   Run run) {
  util::Rng topology_rng(3);
  const graph::Graph graph = graph::make_random_connected_grid(49, topology_rng);
  util::Rng workload_rng(5);
  const core::Workload workload =
      core::make_uniform_workload(49, 20, 100000, workload_rng);
  Config config;
  config.base.generation_per_edge_per_round = 0.5;
  config.base.seed = 9;
  config.base.max_rounds = max_rounds;
  config.base.tick.threads = threads;
  const std::uint64_t before = g_allocation_count.load(std::memory_order_relaxed);
  const auto result = run(graph, workload, config);
  const std::uint64_t after = g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_FALSE(result.base.completed);
  EXPECT_EQ(result.base.rounds, max_rounds);
  return after - before;
}

TEST(HotPathAllocations, HybridAndGossipRoundsAllocateNothing) {
  // Every per-round structure of the two protocol-specific phases (the
  // assist's route search and demand, gossip's report ring and its
  // delivery lists) is sized up front or on first use, so a run twice as
  // long must allocate exactly as often: any per-round allocation would
  // show up 300 more times.
#ifdef POQ_UNDER_TSAN
  GTEST_SKIP() << "the TSan runtime allocates behind the program's back, "
                  "so a heap-silence assertion is meaningless under it";
#endif
  for (const unsigned threads : {1u, 2u}) {
    EXPECT_EQ((full_run_allocations<core::HybridConfig>(threads, 300, core::run_hybrid)),
              (full_run_allocations<core::HybridConfig>(threads, 600, core::run_hybrid)))
        << "hybrid at threads=" << threads;
    EXPECT_EQ((full_run_allocations<core::GossipConfig>(threads, 300, core::run_gossip)),
              (full_run_allocations<core::GossipConfig>(threads, 600, core::run_gossip)))
        << "gossip at threads=" << threads;
  }
}

}  // namespace
}  // namespace poq::scenario
