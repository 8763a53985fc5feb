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

TEST(PairLedger, StartsEmpty) {
  PairLedger ledger(4);
  EXPECT_EQ(ledger.total_pairs(), 0u);
  EXPECT_EQ(ledger.count(0, 1), 0u);
  EXPECT_TRUE(ledger.partners(0).empty());
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
  const auto partners = ledger.partners(1);
  ASSERT_EQ(partners.size(), 3u);
  EXPECT_EQ(partners[0], 0u);
  EXPECT_EQ(partners[1], 3u);
  EXPECT_EQ(partners[2], 4u);
  EXPECT_EQ(ledger.partners(3).size(), 1u);
  EXPECT_EQ(ledger.partners(2).size(), 0u);
}

TEST(PairLedger, RemoveUpdatesPartners) {
  PairLedger ledger(4);
  ledger.add(0, 1, 2);
  ledger.remove(0, 1, 1);
  EXPECT_EQ(ledger.count(0, 1), 1u);
  EXPECT_EQ(ledger.partners(0).size(), 1u);
  ledger.remove(1, 0, 1);
  EXPECT_EQ(ledger.count(0, 1), 0u);
  EXPECT_TRUE(ledger.partners(0).empty());
  EXPECT_TRUE(ledger.partners(1).empty());
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
  EXPECT_THROW((void)ledger.partners(5), PreconditionError);
}

TEST(PairLedger, ZeroAmountIsNoop) {
  PairLedger ledger(3);
  ledger.add(0, 1, 0);
  EXPECT_EQ(ledger.count(0, 1), 0u);
  EXPECT_TRUE(ledger.partners(0).empty());
  ledger.add(0, 1, 2);
  ledger.remove(0, 1, 0);
  EXPECT_EQ(ledger.count(0, 1), 2u);
}

TEST(PairLedger, EntanglementGraphThreshold) {
  PairLedger ledger(4);
  ledger.add(0, 1, 1);
  ledger.add(1, 2, 3);
  ledger.add(2, 3, 5);
  const auto any = ledger.entanglement_graph(1);
  EXPECT_EQ(any.edge_count(), 3u);
  const auto strong = ledger.entanglement_graph(3);
  EXPECT_EQ(strong.edge_count(), 2u);
  EXPECT_TRUE(strong.has_edge(1, 2));
  EXPECT_TRUE(strong.has_edge(2, 3));
  EXPECT_FALSE(strong.has_edge(0, 1));
}

TEST(PairLedger, TotalPairsAccumulates) {
  PairLedger ledger(5);
  ledger.add(0, 1, 10);
  ledger.add(2, 3, 5);
  ledger.remove(0, 1, 4);
  EXPECT_EQ(ledger.total_pairs(), 11u);
}

// row(x) is x's row with its counts read in place, and dense_row(x) is
// x's row of the count mirror: after any mix of add, remove (to zero
// included), integral and fractional NetworkState::generate and
// NetworkState::purge_node, both agree with a reference matrix and with
// count() entry for entry, absent pairs included, live_row(x) has
// exactly the live partners' bits, and check_invariants() holds after
// every step. Runs below the mirror limit (every node churns; 130 nodes
// spread each bitset over 3 words) and above it (no mirror; the random churn touches 12 nodes spread over
// the ring, while generation covers every cycle edge).
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
    // Every row entry matches the reference and the totals agree, so no
    // live reference pair is missing from the rows either.
    for (NodeId x = 0; x < nodes; ++x) {
      const PairLedger::RowView row = ledger.row(x);
      for (std::size_t k = 0; k < row.size(); ++k) {
        EXPECT_GT(row.count_at(k), 0u);
        EXPECT_EQ(row.count_at(k), ref(x, row.partners()[k]))
            << "node " << x << " slot " << k << " step " << step;
      }
    }
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
      (void)state.purge_node(x);
      for (NodeId z = 0; z < nodes; ++z) {
        expected_total -= ref(x, z);
        ref(x, z) = ref(z, x) = 0;
      }
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
  churn_rows_against_reference(12);
  churn_rows_against_reference(130);
  churn_rows_against_reference(PairLedger::kFullReserveNodeLimit + 1);
}

// The mirror and the live bitsets exist exactly up to
// kFullReserveNodeLimit nodes, and the logical memory accounting charges
// their 4 n^2 and 8 n ceil(n/64) bytes, a partner id per row entry below
// the limit (the mirror holds the count) and an id plus a count above it.
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
  // Rows, then the mirror (4 n^2), then the bitsets (8 n ceil(n/64)).
  PairLedger small(3);
  EXPECT_EQ(small.memory_bytes(), 48u * 3 + 4u * 9 + 8u * 3);
  small.add(0, 1, 5);
  EXPECT_EQ(small.memory_bytes(), 48u * 3 + 4u * 9 + 8u * 3 + 4u * 2);
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
    EXPECT_TRUE(ledger.partners(0).empty());
    ASSERT_EQ(ledger.partners(1).size(), 1u);
    EXPECT_EQ(ledger.partners(1)[0], last);
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

}  // namespace
}  // namespace poq::core
