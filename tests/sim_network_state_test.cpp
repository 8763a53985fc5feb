// sim::NetworkState phase kernels: the generation kernel's keyed streams
// and its merge (one canonical-order add per edge), the decay/decohere
// kernels, and above all the swap commit — its walk over the candidate
// table from `first` modulo n must equal the hand-written rotated,
// filtered 0..n scan below, for every threads setting, even on a dense
// round where every node has a candidate. Each chunked kernel is run on
// a range its constant grain splits, and the tests check that it did.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/ledger.hpp"
#include "core/maxmin_balancer.hpp"
#include "graph/topology.hpp"
#include "sim/fault_plan.hpp"
#include "sim/network_state.hpp"
#include "util/rng.hpp"

namespace poq::sim {
namespace {

using core::MaxMinBalancer;
using core::NodeId;
using core::PairLedger;
using core::SwapCandidate;

/// x's partners with their counts, ascending.
std::vector<std::pair<NodeId, std::uint32_t>> row_entries(const PairLedger& ledger,
                                                          NodeId x) {
  std::vector<std::pair<NodeId, std::uint32_t>> entries;
  ledger.row(x).for_each(
      [&entries](NodeId y, std::uint32_t count) { entries.emplace_back(y, count); });
  return entries;
}

// NetworkState keeps a reference to its graph: a temporary graph would
// dangle after the constructor, so it must not compile.
static_assert(std::is_constructible_v<NetworkState, const graph::Graph&, std::uint64_t,
                                      const TickConcurrency&>);
static_assert(!std::is_constructible_v<NetworkState, graph::Graph&&, std::uint64_t,
                                       const TickConcurrency&>);
static_assert(!std::is_constructible_v<NetworkState, graph::Graph&&, std::uint64_t,
                                       const TickConcurrency&, std::optional<DecayModel>>);

TickConcurrency with_threads(std::uint32_t threads) {
  TickConcurrency tick;
  tick.threads = threads;
  return tick;
}

/// Chunks one dispatch of a kernel with `grain` makes over `items`.
std::size_t chunks_per_dispatch(std::size_t items, std::size_t grain) {
  return (items + grain - 1) / grain;
}

/// Text fingerprint of the full count matrix (its nonzero entries).
std::string ledger_dump(const PairLedger& ledger) {
  std::string out;
  const auto n = static_cast<NodeId>(ledger.node_count());
  for (NodeId x = 0; x < n; ++x) {
    for (const auto& [y, count] : row_entries(ledger, x)) {
      if (y > x) out += std::to_string(y) + ":" + std::to_string(count) + ",";
    }
    out += "\n";
  }
  return out;
}

/// Seed a dense, conflict-heavy count state: every adjacent triple of the
/// cycle plus chords holds enough pairs that every node decides a swap,
/// and neighbouring triples overlap (maximal conflict components).
void fill_dense(PairLedger& ledger, std::uint32_t pairs_per_link) {
  const auto n = static_cast<NodeId>(ledger.node_count());
  for (NodeId x = 0; x < n; ++x) {
    ledger.add(x, static_cast<NodeId>((x + 1) % n), pairs_per_link);
    ledger.add(x, static_cast<NodeId>((x + 2) % n), pairs_per_link / 2 + 1);
  }
}

/// Reference implementation: the fully serial canonical commit (walk
/// nodes in rotating order, re-check, execute with the same keyed
/// streams). commit_swaps must reproduce it exactly.
struct SerialOutcome {
  std::uint64_t swaps = 0;
  std::uint64_t consumed = 0;
  std::vector<NodeId> commit_order;
};
SerialOutcome serial_commit(
    const MaxMinBalancer& balancer, PairLedger& ledger,
    const std::vector<std::optional<SwapCandidate>>& candidates, NodeId first,
    std::uint64_t seed, std::uint32_t round, std::uint32_t attempt) {
  SerialOutcome outcome;
  const auto n = static_cast<NodeId>(ledger.node_count());
  for (NodeId offset = 0; offset < n; ++offset) {
    const auto x = static_cast<NodeId>((first + offset) % n);
    if (!candidates[x]) continue;
    if (!balancer.is_preferable(ledger, x, candidates[x]->left,
                                candidates[x]->right)) {
      continue;
    }
    util::Rng rng = util::Rng::keyed(
        seed, stream_tag::kSwap,
        (static_cast<std::uint64_t>(attempt) << 32) | round, x);
    const auto execution = balancer.execute_swap(
        ledger, x, candidates[x]->left, candidates[x]->right, rng);
    ++outcome.swaps;
    outcome.consumed += execution.consumed_left + execution.consumed_right;
    outcome.commit_order.push_back(x);
  }
  return outcome;
}

TEST(NetworkStateCommit, DenseConflictRoundMatchesSerialCommit) {
  // Dense round: chords guarantee overlapping triples, so most of the
  // network collapses into a few conflict components, with a handful of
  // disjoint ones. Every threads setting must reproduce the serial
  // canonical commit bit for bit — counts, stats, and order. 80 nodes
  // split the decide kernel at its grain.
  constexpr NodeId kNodes = 80;
  const std::size_t decide_chunks = chunks_per_dispatch(kNodes, grain::kDecide);
  ASSERT_GT(decide_chunks, 1u);
  const graph::Graph graph = graph::make_cycle(kNodes);
  const MaxMinBalancer balancer{1.0};
  const std::uint64_t seed = 99;
  const std::uint32_t round = 17;

  // Reference: serial commit on an identically prepared ledger.
  PairLedger reference(kNodes);
  fill_dense(reference, 6);
  std::vector<std::optional<SwapCandidate>> decided(kNodes);
  std::size_t with_candidate = 0;
  {
    MaxMinBalancer::Scratch scratch;
    for (NodeId x = 0; x < kNodes; ++x) {
      decided[x] = balancer.best_swap(reference, x, scratch);
      if (decided[x]) ++with_candidate;
    }
  }
  ASSERT_GT(with_candidate, kNodes * 5 / 6)
      << "dense setup should decide nearly everywhere";
  const auto first = static_cast<NodeId>(round % kNodes);
  const SerialOutcome expected =
      serial_commit(balancer, reference, decided, first, seed, round, 0);
  ASSERT_GT(expected.swaps, 0u);

  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    NetworkState state(graph, seed, with_threads(threads));
    fill_dense(state.ledger(), 6);
    state.decide_swaps([&](NodeId x, MaxMinBalancer::Scratch& scratch) {
      return balancer.best_swap(state.ledger(), x, scratch);
    });
    EXPECT_EQ(state.timers().decide_load.chunks, decide_chunks)
        << "threads=" << threads;
    for (NodeId x = 0; x < kNodes; ++x) {
      ASSERT_EQ(state.candidates()[x].has_value(), decided[x].has_value());
    }
    std::vector<NodeId> observed_order;
    const NetworkState::CommitStats stats = state.commit_swaps(
        balancer, first, round, 0,
        [&](NodeId x, const SwapCandidate& candidate) {
          return balancer.is_preferable(state.ledger(), x, candidate.left,
                                        candidate.right);
        },
        [&](const NetworkState::CommittedSwap& swap) {
          observed_order.push_back(swap.node);
        });
    EXPECT_EQ(stats.swaps, expected.swaps) << "threads=" << threads;
    EXPECT_EQ(stats.pairs_consumed, expected.consumed);
    EXPECT_EQ(stats.pairs_produced, expected.swaps);
    EXPECT_EQ(observed_order, expected.commit_order);
    EXPECT_EQ(ledger_dump(state.ledger()), ledger_dump(reference))
        << "threads=" << threads;
  }
}

TEST(NetworkStateCommit, ConflictingCandidatesSerializeInCanonicalOrder) {
  // Three nodes on a path all want the same donor pairs: only the first
  // in rotating order can win; the others must fail the re-check.
  const graph::Graph graph = graph::make_path(5);
  const MaxMinBalancer balancer{1.0};
  NetworkState state(graph, 1, with_threads(4));
  // One chain 0-1-2-3-4 with exactly two pairs per link: nodes 1, 2, 3
  // each decide a swap, every pair of them conflicts (shared links).
  for (NodeId x = 0; x + 1 < 5; ++x) state.ledger().add(x, x + 1, 2);
  state.decide_swaps([&](NodeId x, MaxMinBalancer::Scratch& scratch) {
    return balancer.best_swap(state.ledger(), x, scratch);
  });
  ASSERT_TRUE(state.candidates()[1] && state.candidates()[2] &&
              state.candidates()[3]);
  std::vector<NodeId> order;
  const NetworkState::CommitStats stats = state.commit_swaps(
      balancer, /*first=*/1, /*round=*/0, /*attempt=*/0,
      [&](NodeId x, const SwapCandidate& candidate) {
        return balancer.is_preferable(state.ledger(), x, candidate.left,
                                      candidate.right);
      },
      [&](const NetworkState::CommittedSwap& swap) {
        order.push_back(swap.node);
      });
  // Node 1 commits first in rotating order, consuming a (0,1) and a (1,2)
  // pair; node 2's (1,2) donor is gone, so its re-check must fail; node
  // 3's donors (2,3)/(3,4) are untouched, so it commits.
  EXPECT_EQ(stats.swaps, 2u);
  EXPECT_EQ(order, (std::vector<NodeId>{1, 3}));
}

TEST(NetworkStateGeneration, KeyedStreamsAreShardInvariant) {
  // The 33x33 torus has 2112 edges, so every generate dispatch splits at
  // the generation grain.
  const graph::Graph graph = graph::make_torus_grid(1089);
  const std::size_t generate_chunks =
      chunks_per_dispatch(graph.edge_count(), grain::kGenerate);
  ASSERT_GT(generate_chunks, 1u);
  constexpr std::uint32_t kRounds = 10;
  std::string reference;
  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    NetworkState state(graph, 7, with_threads(threads));
    std::uint64_t generated = 0;
    for (std::uint32_t round = 1; round <= kRounds; ++round) {
      generated += state.generate(round, 0.6);
    }
    EXPECT_EQ(state.timers().generate_load.chunks, kRounds * generate_chunks)
        << "threads=" << threads;
    const std::string dump =
        ledger_dump(state.ledger()) + "#" + std::to_string(generated);
    if (reference.empty()) {
      reference = dump;
      EXPECT_GT(generated, 0u);
    } else {
      EXPECT_EQ(dump, reference) << "threads=" << threads;
    }
  }
}

// The generation merge is one canonical-edge-order loop of
// PairLedger::add. Rebuild it per edge from the scalar keyed draw, the
// fault plan's edge_up and add, and require the same rows, the same
// total and the same returned count, for integral and fractional rates, with and without a churning link mask,
// at one and two threads.
TEST(NetworkStateGeneration, MergeMatchesScalarReference) {
  util::Rng topo_rng(5);
  const graph::Graph graph = graph::make_random_connected_grid(25, topo_rng);
  const auto n = static_cast<NodeId>(graph.node_count());
  FaultConfig churn;
  churn.link_mtbf = 4.0;
  churn.link_mttr = 3.0;
  constexpr std::uint64_t kSeed = 11;
  for (const double rate : {2.0, 1.6}) {
    for (const bool masked : {false, true}) {
      for (const std::uint32_t threads : {1u, 2u}) {
        SCOPED_TRACE("rate " + std::to_string(rate) + " masked " +
                     std::to_string(masked) + " threads " + std::to_string(threads));
        NetworkState state(graph, kSeed, with_threads(threads));
        FaultPlan plan(graph, churn, kSeed);
        if (masked) state.set_fault_plan(&plan);
        PairLedger reference(graph.node_count());
        const double whole = std::floor(rate);
        bool saw_mask = false;
        for (std::uint32_t round = 1; round <= 12; ++round) {
          if (masked) {
            (void)plan.advance(round);
            saw_mask |= plan.any_edge_down();
          }
          std::uint64_t expected = 0;
          for (std::size_t e = 0; e < graph.edge_count(); ++e) {
            util::Rng draw = util::Rng::keyed(kSeed, stream_tag::kGeneration, round, e);
            const auto amount = static_cast<std::uint32_t>(whole) +
                                (rate > whole && draw.bernoulli(rate - whole) ? 1u : 0u);
            if (masked && !plan.edge_up(e)) continue;
            reference.add(graph.edges()[e].a(), graph.edges()[e].b(), amount);
            expected += amount;
          }
          EXPECT_EQ(state.generate(round, rate), expected) << "round " << round;
          for (NodeId x = 0; x < n; ++x) {
            ASSERT_EQ(row_entries(state.ledger(), x), row_entries(reference, x))
                << "node " << x << " round " << round;
          }
          EXPECT_EQ(state.ledger().total_pairs(), reference.total_pairs());
        }
        EXPECT_EQ(saw_mask, masked);
      }
    }
  }
}

TEST(NetworkStateDecay, TrackedPairsPurgeAndDecohere) {
  const graph::Graph graph = graph::make_cycle(6);
  NetworkState state(graph, 1, with_threads(2), DecayModel{50.0, 0.70});
  state.add_pair(0, 1, 0.0, 0.95);
  state.add_pair(0, 1, 5.0, 0.95);
  state.add_pair(2, 3, 0.0, 0.72);  // barely usable, dies quickly
  EXPECT_EQ(state.ledger().count(0, 1), 2u);
  // At t=6 the fresh pairs hold; the weak one has decayed below 0.70.
  EXPECT_EQ(state.decohere_all(6.0), 1u);
  EXPECT_EQ(state.ledger().count(2, 3), 0u);
  EXPECT_EQ(state.ledger().count(0, 1), 2u);
  // Freshest-first take returns the younger (higher-fidelity) pair.
  const TrackedPair taken = state.take_pair(0, 1, 6.0, /*freshest=*/true);
  EXPECT_EQ(taken.created, 5.0);
  EXPECT_EQ(state.ledger().count(0, 1), 1u);
  // Oldest-first returns the remaining original.
  const TrackedPair oldest = state.take_pair(0, 1, 6.0, /*freshest=*/false);
  EXPECT_EQ(oldest.created, 0.0);
  EXPECT_EQ(state.ledger().total_pairs(), 0u);
}

// 300 nodes split the decohere sweep at its grain: the weak pair on
// every third link decays below the usable threshold, in both chunks,
// and every threads setting drops the same pairs.
TEST(NetworkStateDecay, DecohereSplitsAtItsGrain) {
  constexpr NodeId kNodes = 300;
  const std::size_t decohere_chunks =
      chunks_per_dispatch(kNodes, grain::kDecohere);
  ASSERT_GT(decohere_chunks, 1u);
  const graph::Graph graph = graph::make_cycle(kNodes);
  std::string reference;
  for (const std::uint32_t threads : {1u, 4u}) {
    NetworkState state(graph, 1, with_threads(threads), DecayModel{50.0, 0.70});
    for (NodeId x = 0; x < kNodes; ++x) {
      const auto y = static_cast<NodeId>((x + 1) % kNodes);
      state.add_pair(x, y, 0.0, x % 3 == 0 ? 0.72 : 0.95);
    }
    EXPECT_EQ(state.decohere_all(6.0), kNodes / 3) << "threads=" << threads;
    EXPECT_EQ(state.timers().decohere_load.chunks, decohere_chunks)
        << "threads=" << threads;
    const std::string dump = ledger_dump(state.ledger());
    if (reference.empty()) {
      reference = dump;
    } else {
      EXPECT_EQ(dump, reference) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace poq::sim
