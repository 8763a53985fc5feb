#include "core/ledger.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.hpp"
#include "graph/topology.hpp"
#include "sim/network_state.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace poq::core {
namespace {

/// x's partners, ascending, as row(x).for_each visits them.
std::vector<NodeId> partners_of(const PairLedger& ledger, NodeId x) {
  std::vector<NodeId> partners;
  ledger.row(x).for_each([&partners](NodeId y, std::uint32_t) { partners.push_back(y); });
  return partners;
}

TEST(PairLedger, StartsEmpty) {
  PairLedger ledger(4);
  EXPECT_EQ(ledger.total_pairs(), 0u);
  EXPECT_EQ(ledger.count(0, 1), 0u);
  EXPECT_TRUE(partners_of(ledger, 0).empty());
}

TEST(PairLedger, CountsAreSymmetric) {
  PairLedger ledger(4);
  ledger.add(2, 0, 3);
  EXPECT_EQ(ledger.count(0, 2), 3u);
  EXPECT_EQ(ledger.count(2, 0), 3u);
  EXPECT_EQ(ledger.total_pairs(), 3u);
}

TEST(PairLedger, PartnersTrackNonzeroCounts) {
  PairLedger ledger(5);
  ledger.add(1, 3);
  ledger.add(1, 0);
  ledger.add(1, 4);
  EXPECT_EQ(partners_of(ledger, 1), (std::vector<NodeId>{0, 3, 4}));
  EXPECT_EQ(ledger.row(1).size(), 3u);
  EXPECT_EQ(ledger.row(3).size(), 1u);
  EXPECT_EQ(ledger.row(2).size(), 0u);
}

TEST(PairLedger, RemoveUpdatesPartners) {
  PairLedger ledger(4);
  ledger.add(0, 1, 2);
  ledger.remove(0, 1, 1);
  EXPECT_EQ(ledger.count(0, 1), 1u);
  EXPECT_EQ(ledger.row(0).size(), 1u);
  ledger.remove(1, 0, 1);
  EXPECT_EQ(ledger.count(0, 1), 0u);
  EXPECT_TRUE(partners_of(ledger, 0).empty());
  EXPECT_TRUE(partners_of(ledger, 1).empty());
  EXPECT_EQ(ledger.total_pairs(), 0u);
}

TEST(PairLedger, RemoveUnderflowThrows) {
  PairLedger ledger(3);
  ledger.add(0, 1, 1);
  EXPECT_THROW(ledger.remove(0, 1, 2), PreconditionError);
}

TEST(PairLedger, RejectsSelfPairs) {
  PairLedger ledger(3);
  EXPECT_THROW(ledger.add(1, 1), PreconditionError);
  EXPECT_THROW((void)ledger.count(2, 2), PreconditionError);
}

TEST(PairLedger, RejectsOutOfRange) {
  PairLedger ledger(3);
  EXPECT_THROW(ledger.add(0, 3), PreconditionError);
  EXPECT_THROW((void)ledger.row(5), PreconditionError);
  EXPECT_THROW((void)ledger.remove_node(3), PreconditionError);
}

TEST(PairLedger, ZeroAmountIsNoop) {
  PairLedger ledger(3);
  ledger.add(0, 1, 0);
  EXPECT_EQ(ledger.count(0, 1), 0u);
  EXPECT_TRUE(partners_of(ledger, 0).empty());
  ledger.add(0, 1, 2);
  ledger.remove(0, 1, 0);
  EXPECT_EQ(ledger.count(0, 1), 2u);
}

TEST(PairLedger, TotalPairsAccumulates) {
  PairLedger ledger(5);
  ledger.add(0, 1, 10);
  ledger.add(2, 3, 5);
  ledger.remove(0, 1, 4);
  EXPECT_EQ(ledger.total_pairs(), 11u);
}

// row(x).for_each walks x's partners with their counts, and dense_row(x)
// is x's row of the count mirror: after any mix of add, remove (to zero
// included), integral and fractional NetworkState::generate and
// NetworkState::purge_node, every walk visits exactly the live partners,
// ascending, with the reference counts, dense_row and count() agree with
// the reference entry for entry, absent pairs included, live_row(x) has
// exactly the live partners' bits, and check_invariants() holds after
// every step. Runs below the mirror limit (every node churns; 63, 64 and
// 65 nodes put the last partner on either side of a bitset word's end,
// and 130 nodes spread each bitset over 3 words) and above it (no
// mirror; the random churn touches 12 nodes spread over the ring, while
// generation covers every cycle edge).
void churn_rows_against_reference(std::size_t nodes) {
  SCOPED_TRACE(testing::Message() << "nodes " << nodes);
  constexpr std::size_t kActive = 12;
  const std::size_t stride = nodes / kActive;
  const bool mirrored = nodes <= PairLedger::kFullReserveNodeLimit;
  const graph::Graph cycle = graph::make_cycle(nodes);
  sim::NetworkState state(cycle, 7, sim::TickConcurrency{});
  PairLedger& ledger = state.ledger();
  std::vector<std::uint32_t> expected(nodes * nodes, 0);
  const auto ref = [&](NodeId a, NodeId b) -> std::uint32_t& {
    return expected[a * nodes + b];
  };
  std::uint64_t expected_total = 0;
  util::Rng rng(0xA11C);
  const auto expect_add = [&](NodeId a, NodeId b, std::uint32_t amount) {
    ref(a, b) += amount;
    ref(b, a) += amount;
    expected_total += amount;
  };
  const auto check_rows = [&](int step) {
    ASSERT_NO_THROW(ledger.check_invariants()) << "step " << step;
    ASSERT_EQ(ledger.total_pairs(), expected_total) << "step " << step;
    // Every visited entry matches the reference, ascending, and the
    // visits add up to twice the total, so no live reference pair is
    // missing from the walks either.
    std::uint64_t visited_total = 0;
    for (NodeId x = 0; x < nodes; ++x) {
      std::size_t visits = 0;
      NodeId previous = 0;
      ledger.row(x).for_each([&](NodeId y, std::uint32_t count) {
        EXPECT_TRUE(visits == 0 || previous < y) << "node " << x << " step " << step;
        EXPECT_GT(count, 0u);
        EXPECT_EQ(count, ref(x, y)) << "pair " << x << "," << y << " step " << step;
        previous = y;
        ++visits;
        visited_total += count;
      });
      EXPECT_EQ(ledger.row(x).size(), visits) << "node " << x << " step " << step;
    }
    EXPECT_EQ(visited_total, 2 * expected_total) << "step " << step;
    for (std::size_t i = 0; i < kActive; ++i) {
      const auto x = static_cast<NodeId>(i * stride);
      const std::uint32_t* dense = ledger.dense_row(x);
      const std::uint64_t* live = ledger.live_row(x);
      ASSERT_EQ(dense != nullptr, mirrored);
      ASSERT_EQ(live != nullptr, mirrored);
      for (NodeId y = 0; y < nodes; ++y) {
        if (mirrored) {
          EXPECT_EQ((live[y / 64] >> (y % 64)) & 1, ref(x, y) > 0 ? 1u : 0u)
              << "live bit " << x << "," << y << " step " << step;
        }
        if (y == x) continue;
        if (mirrored) {
          EXPECT_EQ(dense[y], ref(x, y)) << "pair " << x << "," << y << " step " << step;
        }
        EXPECT_EQ(ledger.count(x, y), ref(x, y))
            << "pair " << x << "," << y << " step " << step;
      }
    }
  };
  for (int step = 0; step < 2000; ++step) {
    const std::size_t xi = rng.uniform_index(kActive);
    std::size_t yi = rng.uniform_index(kActive);
    if (yi == xi) yi = (yi + 1) % kActive;
    const auto x = static_cast<NodeId>(xi * stride);
    const auto y = static_cast<NodeId>(yi * stride);
    const auto amount = static_cast<std::uint32_t>(1 + rng.uniform_index(3));
    if (step % 50 == 0 || step % 50 == 10) {
      // Generation over the cycle's edges: integral, or fractional with
      // each edge's rounding flag from its keyed stream.
      const auto round = static_cast<std::uint32_t>(step + 1);
      const double rate = step % 50 == 0 ? amount : amount - 0.5;
      (void)state.generate(round, rate);
      const auto& edges = state.generation_graph().edges();
      for (std::size_t e = 0; e < edges.size(); ++e) {
        std::uint32_t added = amount;
        if (step % 50 == 10) {
          util::Rng draw =
              util::Rng::keyed(state.seed(), sim::stream_tag::kGeneration, round, e);
          added = amount - 1 + (draw.bernoulli(0.5) ? 1 : 0);
        }
        expect_add(edges[e].a(), edges[e].b(), added);
      }
    } else if (step % 50 == 30) {
      std::uint64_t held = 0;
      for (NodeId z = 0; z < nodes; ++z) {
        held += ref(x, z);
        ref(x, z) = ref(z, x) = 0;
      }
      EXPECT_EQ(state.purge_node(x), held) << "step " << step;
      expected_total -= held;
    } else if (rng.bernoulli(0.5) || ref(x, y) < amount) {
      ledger.add(x, y, amount);
      expect_add(x, y, amount);
    } else {
      // Removing the whole count erases the entry from both rows.
      const std::uint32_t removed = rng.bernoulli(0.3) ? ref(x, y) : amount;
      ledger.remove(x, y, removed);
      ref(x, y) -= removed;
      ref(y, x) -= removed;
      expected_total -= removed;
    }
    check_rows(step);
    if (testing::Test::HasFatalFailure()) return;
  }
  const auto past_end = static_cast<NodeId>(nodes);
  EXPECT_THROW((void)ledger.row(past_end), PreconditionError);
  EXPECT_THROW((void)ledger.dense_row(past_end), PreconditionError);
}

TEST(PairLedger, PairCountsAlignWithPartnersUnderChurn) {
  for (const std::size_t nodes : {std::size_t{12}, std::size_t{63}, std::size_t{64},
                                  std::size_t{65}, std::size_t{130},
                                  PairLedger::kFullReserveNodeLimit + 1}) {
    churn_rows_against_reference(nodes);
  }
}

// remove_node(x) removes every pair x holds and returns how many, in
// both regimes: x's row and x's entries in its partners' rows are gone,
// the other pairs are untouched, and a second call removes nothing.
TEST(PairLedger, RemoveNodeEmptiesTheRowInBothRegimes) {
  for (const std::size_t nodes :
       {std::size_t{5}, std::size_t{65}, PairLedger::kFullReserveNodeLimit + 1}) {
    SCOPED_TRACE(testing::Message() << "nodes " << nodes);
    PairLedger ledger(nodes);
    const auto last = static_cast<NodeId>(nodes - 1);
    ledger.add(0, 1, 3);
    ledger.add(2, 0, 1);
    ledger.add(0, last, 4);
    ledger.add(1, 2, 2);
    ledger.add(last, 1, 5);
    EXPECT_EQ(ledger.remove_node(0), 8u);
    EXPECT_EQ(ledger.total_pairs(), 7u);
    EXPECT_NO_THROW(ledger.check_invariants());
    EXPECT_EQ(ledger.row(0).size(), 0u);
    for (const NodeId y : {NodeId{1}, NodeId{2}, last}) EXPECT_EQ(ledger.count(0, y), 0u);
    EXPECT_EQ(partners_of(ledger, 1), (std::vector<NodeId>{2, last}));
    EXPECT_EQ(partners_of(ledger, 2), std::vector<NodeId>{1});
    EXPECT_EQ(partners_of(ledger, last), std::vector<NodeId>{1});
    EXPECT_EQ(ledger.count(1, last), 5u);
    EXPECT_EQ(ledger.remove_node(0), 0u);
    EXPECT_EQ(ledger.remove_node(1), 7u);
    EXPECT_EQ(ledger.total_pairs(), 0u);
    EXPECT_NO_THROW(ledger.check_invariants());
  }
}

// The mirror and the live bitsets exist exactly up to
// kFullReserveNodeLimit nodes, and the logical memory accounting charges
// their 4 n^2 and 8 n ceil(n/64) bytes and nothing per live pair below
// the limit (they are the whole state), and an id plus a count per row
// entry above it; 48 bytes a node in both.
TEST(PairLedger, DenseRowOnlyUpToFullReserveLimit) {
  const PairLedger at_limit(PairLedger::kFullReserveNodeLimit);
  const PairLedger above(PairLedger::kFullReserveNodeLimit + 1);
  EXPECT_NE(at_limit.dense_row(0), nullptr);
  EXPECT_EQ(above.dense_row(0), nullptr);
  EXPECT_EQ(above.dense_row(PairLedger::kFullReserveNodeLimit), nullptr);
  // The live bitsets come and go with the mirror: ceil(n/64) words a row.
  EXPECT_EQ(at_limit.live_words(), PairLedger::kFullReserveNodeLimit / 64);
  EXPECT_NE(at_limit.live_row(0), nullptr);
  EXPECT_EQ(above.live_words(), 0u);
  EXPECT_EQ(above.live_row(0), nullptr);
  EXPECT_TRUE(above.live_bits().empty());
  // Per node, then the mirror (4 n^2), then the bitsets (8 n ceil(n/64)).
  PairLedger small(3);
  EXPECT_EQ(small.memory_bytes(), 48u * 3 + 4u * 9 + 8u * 3);
  small.add(0, 1, 5);
  EXPECT_EQ(small.memory_bytes(), 48u * 3 + 4u * 9 + 8u * 3);
  const PairLedger three_words(130);
  EXPECT_EQ(three_words.live_words(), 3u);
  EXPECT_EQ(three_words.memory_bytes(), 48u * 130 + 4u * 130 * 130 + 8u * 130 * 3);
  PairLedger big(PairLedger::kFullReserveNodeLimit + 1);
  big.add(0, 1, 5);
  EXPECT_EQ(big.memory_bytes(), 48u * (PairLedger::kFullReserveNodeLimit + 1) + 8u * 2);
}

// Removing a pair that is not live throws and changes nothing, with and
// without the mirror, for a pair that was never live and for one that
// was erased.
TEST(PairLedger, RemoveAbsentPairThrowsAndLeavesLedgerUnchanged) {
  for (const std::size_t nodes :
       {std::size_t{3}, PairLedger::kFullReserveNodeLimit + 1}) {
    SCOPED_TRACE(testing::Message() << "nodes " << nodes);
    PairLedger ledger(nodes);
    const auto last = static_cast<NodeId>(nodes - 1);
    ledger.add(0, 1, 2);
    ledger.add(1, last, 1);
    // (0, last) was never live; (0, 1) was live and is erased.
    EXPECT_THROW(ledger.remove(0, last), PreconditionError);
    ledger.remove(1, 0, 2);
    EXPECT_THROW(ledger.remove(0, 1), PreconditionError);
    EXPECT_THROW(ledger.remove(1, 0, 3), PreconditionError);
    EXPECT_EQ(ledger.count(0, 1), 0u);
    EXPECT_EQ(ledger.count(1, last), 1u);
    EXPECT_EQ(ledger.total_pairs(), 1u);
    EXPECT_TRUE(partners_of(ledger, 0).empty());
    EXPECT_EQ(partners_of(ledger, 1), std::vector<NodeId>{last});
    EXPECT_NO_THROW(ledger.check_invariants());
  }
}

TEST(PairLedger, AddRejectsCountOverflowAndLeavesLedgerUnchanged) {
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  for (const std::size_t nodes :
       {std::size_t{3}, PairLedger::kFullReserveNodeLimit + 1}) {
    SCOPED_TRACE(testing::Message() << "nodes " << nodes);
    PairLedger ledger(nodes);
    ledger.add(0, 1, kMax - 1);
    ledger.add(0, 1, 1);  // exactly the uint32 maximum is representable
    EXPECT_THROW(ledger.add(1, 0, 1), PreconditionError);
    EXPECT_THROW(ledger.add(0, 1, kMax), PreconditionError);
    EXPECT_EQ(ledger.count(0, 1), kMax);
    EXPECT_EQ(ledger.total_pairs(), std::uint64_t{kMax});
    EXPECT_NO_THROW(ledger.check_invariants());
  }
}

// apply_swap against remove, remove, add on a twin ledger, with and
// without the mirror: random swaps among 7 nodes (spread over the ring
// above the limit) whose counts of 0-3 and spends of 0-2 give births,
// deaths and spends of 0 (D = 0). A swap whose spend exceeds a count, or
// whose (left, right) count is at the uint32 maximum, is refused with
// PreconditionError and leaves the ledger as it was, the second spend's
// underflow included (remove, remove, add would have applied the first).
TEST(PairLedger, ApplySwapMatchesRemoveRemoveAdd) {
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  constexpr std::size_t kActive = 7;
  for (const std::size_t nodes :
       {std::size_t{7}, std::size_t{64}, PairLedger::kFullReserveNodeLimit + 1}) {
    SCOPED_TRACE(testing::Message() << "nodes " << nodes);
    std::vector<NodeId> active(kActive);
    for (std::size_t i = 0; i < kActive; ++i) {
      active[i] = static_cast<NodeId>(i * (nodes / kActive));
    }
    PairLedger swapped(nodes);
    PairLedger reference(nodes);
    const auto same = [&](const char* when) {
      SCOPED_TRACE(when);
      ASSERT_EQ(swapped.total_pairs(), reference.total_pairs());
      for (const NodeId a : active) {
        ASSERT_EQ(partners_of(swapped, a), partners_of(reference, a));
        for (const NodeId b : active) {
          if (a != b) {
            ASSERT_EQ(swapped.count(a, b), reference.count(a, b));
          }
        }
      }
      ASSERT_NO_THROW(swapped.check_invariants());
    };
    util::Rng rng(0x5A9);
    std::uint64_t births = 0;
    std::uint64_t deaths = 0;
    std::uint64_t zero_spends = 0;
    std::uint64_t refusals = 0;
    for (int step = 0; step < 600; ++step) {
      const NodeId x = active[rng.uniform_index(kActive)];
      NodeId left = x;
      while (left == x) left = active[rng.uniform_index(kActive)];
      NodeId right = x;
      while (right == x || right == left) right = active[rng.uniform_index(kActive)];
      // Top up x's two donor pairs now and then, so that swaps keep going.
      for (const NodeId y : {left, right}) {
        const auto amount = static_cast<std::uint32_t>(rng.uniform_index(4));
        if (rng.bernoulli(0.5)) {
          swapped.add(x, y, amount);
          reference.add(x, y, amount);
        }
      }
      const auto spend_left = static_cast<std::uint32_t>(rng.uniform_index(3));
      const auto spend_right = static_cast<std::uint32_t>(rng.uniform_index(3));
      const PairLedger::SwapCounts before = swapped.swap_counts(x, left, right);
      if (spend_left > before.left || spend_right > before.right) {
        EXPECT_THROW(swapped.apply_swap(x, left, right, spend_left, spend_right),
                     PreconditionError);
        ++refusals;
        same("after a refused swap");
        continue;
      }
      births += before.beneficiary == 0 ? 1 : 0;
      deaths += (spend_left > 0 && spend_left == before.left) ||
                        (spend_right > 0 && spend_right == before.right)
                    ? 1
                    : 0;
      zero_spends += spend_left == 0 && spend_right == 0 ? 1 : 0;
      swapped.apply_swap(x, left, right, spend_left, spend_right);
      reference.remove(x, left, spend_left);
      reference.remove(x, right, spend_right);
      reference.add(left, right, 1);
      same("after a swap");
    }
    EXPECT_GT(births, 0u);
    EXPECT_GT(deaths, 0u);
    EXPECT_GT(zero_spends, 0u);
    EXPECT_GT(refusals, 0u);

    // The second spend's underflow, and a beneficiary count at the uint32
    // maximum, are refused before anything changes.
    const NodeId x = active[0];
    const NodeId left = active[1];
    const NodeId right = active[2];
    swapped.add(x, left, 2);
    reference.add(x, left, 2);
    const std::uint32_t right_count = swapped.count(x, right);
    EXPECT_THROW(swapped.apply_swap(x, left, right, 1, right_count + 1), PreconditionError);
    same("after a second-spend underflow");
    const std::uint32_t room = kMax - swapped.count(left, right);
    swapped.add(left, right, room);
    reference.add(left, right, room);
    EXPECT_THROW(swapped.apply_swap(x, left, right, 1, 0), PreconditionError);
    same("after a beneficiary overflow");
    // A triple that is not three distinct nodes in range.
    EXPECT_THROW(swapped.apply_swap(x, x, right, 0, 0), PreconditionError);
    EXPECT_THROW(swapped.apply_swap(x, left, left, 0, 0), PreconditionError);
    EXPECT_THROW(swapped.apply_swap(x, left, static_cast<NodeId>(nodes), 0, 0),
                 PreconditionError);
    same("after refused triples");
  }
}

}  // namespace
}  // namespace poq::core
