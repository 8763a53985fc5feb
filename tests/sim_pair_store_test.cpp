// The sparse pair-metadata stores (core::PairLedger's per-node partner
// rows, sim::PairStore's live-bucket map) must be observationally
// identical to the dense structures they replaced — under arbitrary
// insert/swap/decohere/erase churn, at every threads setting, and
// without the O(n^2) footprint ever creeping back. The fuzz tests here
// drive both stores against brute-force dense reference models; the
// lockstep test cross-checks the protocols that own the churn
// ({balancing, fidelity} x threads {1,2,8}, on networks the decide
// kernel splits); the megascale
// test holds the real heap footprint at n ~ 10^5 to a fixed per-node
// byte bound, so a dense n(n-1)/2 array returning anywhere in the
// construction or round path fails loudly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/balancing_sim.hpp"
#include "core/ledger.hpp"
#include "core/workload.hpp"
#include "graph/topology.hpp"
#include "scenario/protocol.hpp"
#include "sim/network_state.hpp"
#include "util/rng.hpp"

// --- allocation byte counter ------------------------------------------
// Same global operator new/delete discipline as the HotPathAllocations
// suite, extended to track *bytes requested*: the megascale test asserts
// a per-node byte bound over construction plus warm rounds, which is the
// ground truth no logical accounting can fake.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

// TSan's runtime allocates behind the program's back, so byte-bound
// assertions only hold uninstrumented (the fuzz tests still run under
// TSan — that is the point of putting this binary in the TSan leg).
#if defined(__SANITIZE_THREAD__)
#define POQ_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define POQ_UNDER_TSAN 1
#endif
#endif

namespace {
std::atomic<std::uint64_t> g_allocated_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
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

namespace poq {
namespace {

// --- ledger churn vs a dense reference --------------------------------

// Random add/remove churn on the sparse partner rows vs a dense count
// matrix over `kActive` nodes spread evenly over a ledger of `nodes`:
// counts, totals and partner rows must agree after every operation batch, and check_invariants() must hold after every
// operation. Erasing rows to zero and re-inserting them exercises the
// partner-slot insert/erase paths (and, below the mirror limit, the
// mirror's zero for an erased pair) that the dense array never had.
void ledger_fuzz_against_dense(std::size_t nodes) {
  SCOPED_TRACE(testing::Message() << "nodes " << nodes);
  constexpr std::size_t kActive = 24;
  const std::size_t stride = nodes / kActive;
  const auto id = [stride](std::size_t i) {
    return static_cast<core::NodeId>(i * stride);
  };
  util::Rng rng(0x5EED5);
  core::PairLedger ledger(nodes);
  std::vector<std::vector<std::uint32_t>> dense(
      kActive, std::vector<std::uint32_t>(kActive, 0));

  for (int batch = 0; batch < 60; ++batch) {
    for (int op = 0; op < 40; ++op) {
      const std::size_t x = rng.uniform_index(kActive);
      std::size_t y = rng.uniform_index(kActive - 1);
      if (y >= x) ++y;
      const auto amount = static_cast<std::uint32_t>(1 + rng.uniform_index(3));
      if (rng.bernoulli(0.55) || dense[x][y] == 0) {
        ledger.add(id(x), id(y), amount);
        dense[x][y] += amount;
        dense[y][x] += amount;
      } else {
        const std::uint32_t take = std::min(amount, dense[x][y]);
        ledger.remove(id(x), id(y), take);
        dense[x][y] -= take;
        dense[y][x] -= take;
      }
      ASSERT_NO_THROW(ledger.check_invariants())
          << "batch " << batch << " op " << op;
    }
    std::uint64_t total = 0;
    for (std::size_t x = 0; x < kActive; ++x) {
      for (std::size_t y = x + 1; y < kActive; ++y) {
        ASSERT_EQ(ledger.count(id(x), id(y)), dense[x][y])
            << "batch " << batch << " pair (" << x << "," << y << ")";
        total += dense[x][y];
      }
    }
    ASSERT_EQ(ledger.total_pairs(), total) << "batch " << batch;
    // Partner rows must hold exactly the nonzero pairs, both directions.
    for (std::size_t x = 0; x < kActive; ++x) {
      std::vector<core::NodeId> expected;
      for (std::size_t y = 0; y < kActive; ++y) {
        if (dense[x][y] > 0) expected.push_back(id(y));
      }
      std::vector<core::NodeId> row;
      ledger.row(id(x)).for_each(
          [&row](core::NodeId y, std::uint32_t) { row.push_back(y); });
      ASSERT_EQ(row, expected) << "batch " << batch << " row " << x;
    }
  }
}

TEST(PairStoreChurn, LedgerFuzzMatchesDenseReference) {
  ledger_fuzz_against_dense(24);
  if (testing::Test::HasFatalFailure()) return;
  ledger_fuzz_against_dense(core::PairLedger::kFullReserveNodeLimit + 1);
}

// --- tracked-pair churn vs a dense reference --------------------------

TEST(PairStoreChurn, TrackedPairFuzzMatchesDenseReference) {
  // Insert/swap-consume/decohere/erase churn on the decay-tracking
  // NetworkState vs a dense map-of-buckets reference. The reference
  // replays every operation with brute force (including the decohere
  // purge, using the state's own fidelity_now), so bucket contents,
  // ledger counts, and best-fidelity answers must stay identical.
  constexpr std::size_t kNodes = 16;
  util::Rng topology_rng(3);
  const graph::Graph graph = graph::make_random_connected_grid(kNodes, topology_rng);
  sim::TickConcurrency tick;
  tick.threads = 2;
  sim::DecayModel decay;
  decay.memory_time_constant = 12.0;
  decay.usable_fidelity = 0.75;
  sim::NetworkState state(graph, 77, tick, decay);

  using Key = std::pair<core::NodeId, core::NodeId>;
  std::map<Key, std::vector<sim::TrackedPair>> reference;
  const auto key = [](core::NodeId x, core::NodeId y) {
    return x < y ? Key{x, y} : Key{y, x};
  };

  util::Rng rng(0xF1DE1);
  double now = 0.0;
  for (int batch = 0; batch < 50; ++batch) {
    now += 0.5;
    for (int op = 0; op < 30; ++op) {
      auto x = static_cast<core::NodeId>(rng.uniform_index(kNodes));
      auto y = static_cast<core::NodeId>(rng.uniform_index(kNodes - 1));
      if (y >= x) ++y;
      const Key k = key(x, y);
      const double roll = rng.uniform_double();
      if (roll < 0.55 || reference[k].empty()) {
        const double fidelity = 0.8 + 0.2 * rng.uniform_double();
        state.add_pair(x, y, now, fidelity);
        reference[k].push_back(sim::TrackedPair{now, fidelity});
      } else if (roll < 0.8) {
        // Swap-style consumption: take a pair under both policies.
        const bool freshest = rng.bernoulli(0.5);
        const sim::TrackedPair taken = state.take_pair(x, y, now, freshest);
        auto& bucket = reference[k];
        const auto it = std::find_if(
            bucket.begin(), bucket.end(), [&](const sim::TrackedPair& p) {
              return p.created == taken.created &&
                     p.initial_fidelity == taken.initial_fidelity;
            });
        ASSERT_NE(it, bucket.end())
            << "take_pair returned a pair the reference never stored";
        bucket.erase(it);
      } else {
        // Targeted erase of one bucket's decayed entries.
        const std::uint64_t dropped = state.purge_pair_type(x, y, now);
        auto& bucket = reference[k];
        const auto split = std::remove_if(
            bucket.begin(), bucket.end(), [&](const sim::TrackedPair& p) {
              return state.fidelity_now(p, now) < decay.usable_fidelity;
            });
        ASSERT_EQ(dropped,
                  static_cast<std::uint64_t>(bucket.end() - split));
        bucket.erase(split, bucket.end());
      }
    }
    if (batch % 5 == 4) {
      // Global decohere sweep (the resharded O(live pairs) kernel).
      std::uint64_t expected_drops = 0;
      for (auto& [k, bucket] : reference) {
        const auto split = std::remove_if(
            bucket.begin(), bucket.end(), [&](const sim::TrackedPair& p) {
              return state.fidelity_now(p, now) < decay.usable_fidelity;
            });
        expected_drops += static_cast<std::uint64_t>(bucket.end() - split);
        bucket.erase(split, bucket.end());
      }
      ASSERT_EQ(state.decohere_all(now), expected_drops) << "batch " << batch;
    }
    // Full dense cross-check: every pair's count and best fidelity.
    for (core::NodeId x = 0; x < kNodes; ++x) {
      for (core::NodeId y = x + 1; y < kNodes; ++y) {
        const auto it = reference.find(Key{x, y});
        const std::size_t expected = it == reference.end() ? 0 : it->second.size();
        ASSERT_EQ(state.ledger().count(x, y), expected)
            << "batch " << batch << " pair (" << x << "," << y << ")";
        double best = 0.0;
        if (it != reference.end()) {
          for (const sim::TrackedPair& p : it->second) {
            best = std::max(best, state.fidelity_now(p, now));
          }
        }
        ASSERT_DOUBLE_EQ(state.best_fidelity(x, y, now), best)
            << "batch " << batch << " pair (" << x << "," << y << ")";
      }
    }
  }
}

// --- protocol lockstep across the concurrency grid --------------------

std::string run_dump(scenario::ScenarioSpec spec, std::int64_t threads) {
  spec.knobs["threads"] = threads;
  // to_json(false): phase_ms.* wall-clock is outside the contract.
  return scenario::registry().run(spec.protocol, spec).to_json(false).dump(2);
}

TEST(PairStoreChurn, ProtocolLockstepAcrossThreadsAndShards) {
  // The protocols that own the churn — balancing (ledger rows under
  // generate/swap/consume) and fidelity (tracked buckets under
  // add/take/decohere) — on randomized frames, across threads {1,2,8}:
  // the sparse stores must never let a worker schedule leak into
  // results. Every size is above the decide grain (64 nodes), so the
  // decide kernel always runs in more than one chunk.
  util::Rng fuzz(0xC4A2);
  for (int trial = 0; trial < 3; ++trial) {
    for (const std::string& protocol : {std::string("balancing"),
                                        std::string("fidelity")}) {
      scenario::ScenarioSpec spec;
      spec.protocol = protocol;
      spec.topology = fuzz.bernoulli(0.5) ? "random-grid" : "cycle";
      const std::size_t sizes[] = {81, 100, 144};
      spec.nodes = sizes[fuzz.uniform_index(3)];
      spec.consumer_pairs = 6 + fuzz.uniform_index(8);
      spec.requests = 20 + fuzz.uniform_index(20);
      spec.seed = 1 + fuzz.uniform_index(1000);
      if (protocol == "fidelity") {
        spec.knobs["duration"] = 40.0;
        spec.knobs["memory-T"] = 15.0;  // fast decay: decohere churn heavy
      } else {
        spec.knobs["max-rounds"] = std::int64_t{500};
        spec.knobs["generation-rate"] = fuzz.bernoulli(0.5) ? 0.3 : 1.0;
        spec.knobs["distillation"] = 1.5;  // fractional rounding draws
      }
      const std::string reference = run_dump(spec, 1);
      for (const std::int64_t threads : {2, 8}) {
        EXPECT_EQ(run_dump(spec, threads), reference)
            << protocol << " trial " << trial << " diverged at threads="
            << threads << "\nspec: " << spec.to_json().dump(2);
      }
    }
  }
}

TEST(PairStoreChurn, StreamingWorkloadLockstep) {
  // Streaming arrivals ride the same sparse stores; the Poisson arrival
  // stream and the lazily derived pool pairs must be threads
  // invariant, and the run must actually serve requests (satisfied > 0)
  // so the consumption path is exercised, not vacuously equal.
  scenario::ScenarioSpec spec;
  spec.protocol = "balancing";
  spec.topology = "full-grid";
  spec.nodes = 81;  // above the decide grain: the decide kernel splits
  spec.consumer_pairs = 4;
  spec.requests = 1;
  spec.seed = 41;
  spec.knobs["arrival-rate"] = 2.0;
  spec.knobs["consumer-pool"] = std::int64_t{2000000};
  spec.knobs["max-rounds"] = std::int64_t{2000};
  spec.knobs["max-requests"] = std::int64_t{200};
  const std::string reference = run_dump(spec, 1);
  const scenario::RunMetrics metrics = scenario::registry().run("balancing", spec);
  EXPECT_GT(metrics.scalar("satisfied"), 0.0) << "spec never served a request";
  EXPECT_GT(metrics.scalar("arrivals"), 0.0);
  EXPECT_GT(metrics.scalar("memory_bytes_per_node"), 0.0);
  for (const std::int64_t threads : {2, 8}) {
    EXPECT_EQ(run_dump(spec, threads), reference)
        << "streaming run diverged at threads=" << threads;
  }
}

// --- megascale memory bound -------------------------------------------

TEST(MegascaleMemory, SparseTopologyStaysLinearAtHundredThousandNodes) {
  // n = 316^2 ~ 10^5 on a sparse torus: construction plus warm streaming
  // rounds must stay within a fixed heap budget per node. The old dense
  // pair array alone was n(n-1)/2 uint32 slots ~ 200 KB *per node* here;
  // the bound below is two orders of magnitude under that, so any dense
  // n^2 structure returning anywhere in the path trips it immediately.
  // Counted bytes are cumulative allocation requests (frees never
  // subtract), which upper-bounds the live footprint and keeps the
  // assertion deterministic.
#ifdef POQ_UNDER_TSAN
  GTEST_SKIP() << "the TSan runtime allocates behind the program's back, "
                  "so a heap byte bound is meaningless under it";
#endif
  constexpr std::size_t kNodes = 99856;  // 316^2
  const std::uint64_t before = g_allocated_bytes.load(std::memory_order_relaxed);
  const graph::Graph graph = graph::make_torus_grid(kNodes);
  util::Rng workload_rng(5);
  const core::Workload workload =
      core::make_uniform_workload(kNodes, 4, 1, workload_rng);
  core::BalancingConfig config;
  config.seed = 41;
  config.arrival_rate = 8.0;
  config.consumer_pool = 2000000;
  config.max_rounds = 4;
  core::BalancingSimulation sim(graph, workload, config);
  const core::BalancingResult result = sim.run();
  const std::uint64_t after = g_allocated_bytes.load(std::memory_order_relaxed);

  EXPECT_EQ(result.rounds, 4u);
  const std::uint64_t heap_per_node = (after - before) / kNodes;
  EXPECT_LT(heap_per_node, 4096u)
      << "heap footprint regressed to " << heap_per_node
      << " bytes/node — a dense O(n^2) structure is back";
  // The deterministic logical accounting (what BENCH_megascale gates at
  // 1e-9) must agree on the order of magnitude.
  const std::uint64_t logical_per_node = sim.memory_bytes() / kNodes;
  EXPECT_GT(logical_per_node, 0u);
  EXPECT_LT(logical_per_node, 1024u);
}

}  // namespace
}  // namespace poq
