#include "core/maxmin_balancer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/ledger.hpp"
#include "graph/shortest_path.hpp"
#include "graph/topology.hpp"
#include "sim/network_state.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace poq::core {
namespace {

MaxMinBalancer unit_balancer(double distillation = 1.0) {
  return MaxMinBalancer(distillation);
}

// §4's rule, literal reading: swap y' <- x -> y is preferable iff
// C_y(y') + 1 <= min(C_x(y) - D_xy, C_x(y') - D_xy').
TEST(Preferable, BasicCase) {
  PairLedger ledger(4);
  const MaxMinBalancer balancer = unit_balancer();
  ledger.add(0, 1, 3);  // C_x(y') with x=0, y'=1
  ledger.add(0, 2, 3);  // C_x(y) with y=2
  // beneficiary (1,2) at 0: 0 + 1 <= min(3-1, 3-1) = 2 -> preferable.
  EXPECT_TRUE(balancer.is_preferable(ledger, 0, 1, 2));
}

TEST(Preferable, ExactBoundaryIsPreferable) {
  PairLedger ledger(4);
  const MaxMinBalancer balancer = unit_balancer();
  ledger.add(0, 1, 3);
  ledger.add(0, 2, 3);
  ledger.add(1, 2, 1);  // 1 + 1 = 2 <= min(2, 2) -> still preferable
  EXPECT_TRUE(balancer.is_preferable(ledger, 0, 1, 2));
}

TEST(Preferable, BeneficiaryTooRichBlocksSwap) {
  PairLedger ledger(4);
  const MaxMinBalancer balancer = unit_balancer();
  ledger.add(0, 1, 3);
  ledger.add(0, 2, 3);
  ledger.add(1, 2, 2);  // 2 + 1 = 3 > 2 -> not preferable
  EXPECT_FALSE(balancer.is_preferable(ledger, 0, 1, 2));
}

TEST(Preferable, DonorTooPoorBlocksSwap) {
  PairLedger ledger(4);
  const MaxMinBalancer balancer = unit_balancer();
  ledger.add(0, 1, 1);  // cap = 1 - 1 = 0 < 1
  ledger.add(0, 2, 5);
  EXPECT_FALSE(balancer.is_preferable(ledger, 0, 1, 2));
}

TEST(Preferable, DistillationRaisesBar) {
  PairLedger ledger(4);
  const MaxMinBalancer d2 = unit_balancer(2.0);
  ledger.add(0, 1, 3);
  ledger.add(0, 2, 3);
  // caps = 3 - 2 = 1; beneficiary 0 + 1 <= 1 -> exactly preferable.
  EXPECT_TRUE(d2.is_preferable(ledger, 0, 1, 2));
  const MaxMinBalancer d3 = unit_balancer(3.0);
  // caps = 0 -> not preferable.
  EXPECT_FALSE(d3.is_preferable(ledger, 0, 1, 2));
}

TEST(Preferable, RejectsDegenerateTriples) {
  PairLedger ledger(4);
  const MaxMinBalancer balancer = unit_balancer();
  EXPECT_THROW((void)balancer.is_preferable(ledger, 0, 0, 1), PreconditionError);
  EXPECT_THROW((void)balancer.is_preferable(ledger, 0, 1, 1), PreconditionError);
}

TEST(BestSwap, NoneWhenNoPairs) {
  PairLedger ledger(4);
  const MaxMinBalancer balancer = unit_balancer();
  MaxMinBalancer::Scratch scratch;
  EXPECT_FALSE(balancer.best_swap(ledger, 0, scratch).has_value());
}

TEST(BestSwap, PicksMinimalBeneficiary) {
  PairLedger ledger(5);
  const MaxMinBalancer balancer = unit_balancer();
  ledger.add(0, 1, 10);
  ledger.add(0, 2, 10);
  ledger.add(0, 3, 10);
  ledger.add(1, 2, 4);  // candidate (1,2) beneficiary 4
  ledger.add(1, 3, 2);  // candidate (1,3) beneficiary 2  <- minimal
  ledger.add(2, 3, 6);  // candidate (2,3) beneficiary 6
  MaxMinBalancer::Scratch scratch;
  const auto best = balancer.best_swap(ledger, 0, scratch);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(NodePair(best->left, best->right), NodePair(1, 3));
  EXPECT_EQ(best->beneficiary_count, 2u);
}

TEST(BestSwap, ZeroBeneficiaryShortCircuits) {
  PairLedger ledger(5);
  const MaxMinBalancer balancer = unit_balancer();
  ledger.add(0, 1, 5);
  ledger.add(0, 2, 5);
  MaxMinBalancer::Scratch scratch;
  const auto best = balancer.best_swap(ledger, 0, scratch);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->beneficiary_count, 0u);
}

TEST(ExecuteSwap, MovesCounts) {
  PairLedger ledger(4);
  const MaxMinBalancer balancer = unit_balancer();
  util::Rng rng(1);
  ledger.add(0, 1, 3);
  ledger.add(0, 2, 3);
  const auto execution = balancer.execute_swap(ledger, 0, 1, 2, rng);
  EXPECT_EQ(execution.consumed_left, 1u);
  EXPECT_EQ(execution.consumed_right, 1u);
  EXPECT_EQ(ledger.count(0, 1), 2u);
  EXPECT_EQ(ledger.count(0, 2), 2u);
  EXPECT_EQ(ledger.count(1, 2), 1u);
}

TEST(ExecuteSwap, IntegerDistillationConsumesD) {
  PairLedger ledger(4);
  const MaxMinBalancer balancer = unit_balancer(3.0);
  util::Rng rng(1);
  ledger.add(0, 1, 5);
  ledger.add(0, 2, 7);
  balancer.execute_swap(ledger, 0, 1, 2, rng);
  EXPECT_EQ(ledger.count(0, 1), 2u);
  EXPECT_EQ(ledger.count(0, 2), 4u);
  EXPECT_EQ(ledger.count(1, 2), 1u);
}

TEST(ExecuteSwap, FractionalDistillationAveragesD) {
  util::Rng rng(5);
  const MaxMinBalancer balancer = unit_balancer(1.5);
  std::uint64_t consumed = 0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    PairLedger ledger(4);
    ledger.add(0, 1, 5);
    ledger.add(0, 2, 5);
    const auto execution = balancer.execute_swap(ledger, 0, 1, 2, rng);
    consumed += execution.consumed_left + execution.consumed_right;
  }
  EXPECT_NEAR(static_cast<double>(consumed) / trials, 3.0, 0.05);
}

/// Smallest count over all unordered node pairs, absent pairs included.
std::uint32_t global_minimum(const PairLedger& ledger) {
  std::uint32_t minimum = UINT32_MAX;
  const auto n = static_cast<NodeId>(ledger.node_count());
  for (NodeId x = 0; x < n; ++x) {
    for (NodeId y = x + 1; y < n; ++y) {
      minimum = std::min(minimum, ledger.count(x, y));
    }
  }
  return minimum;
}

// A preferable swap never lowers the global minimum pair count.
TEST(MaxMinProperty, GlobalMinimumNeverDecreases) {
  util::Rng rng(17);
  MaxMinBalancer::Scratch scratch;
  for (int trial = 0; trial < 30; ++trial) {
    PairLedger ledger(6);
    const MaxMinBalancer balancer = unit_balancer();
    for (NodeId x = 0; x < 6; ++x) {
      for (NodeId y = x + 1; y < 6; ++y) {
        ledger.add(x, y, static_cast<std::uint32_t>(rng.uniform_index(6)));
      }
    }
    for (int step = 0; step < 200; ++step) {
      const NodeId x = static_cast<NodeId>(rng.uniform_index(6));
      const auto candidate = balancer.best_swap(ledger, x, scratch);
      if (!candidate) continue;
      const std::uint32_t before = global_minimum(ledger);
      balancer.execute_swap(ledger, x, candidate->left, candidate->right, rng);
      EXPECT_GE(global_minimum(ledger), before);
    }
  }
}

/// The outcome of settle(): whether the last round committed nothing,
/// and the summed commit stats.
struct Settled {
  bool quiescent = false;
  sim::NetworkState::CommitStats totals;
};

/// §4 balancing with generation and consumption frozen, driven through
/// the tick engine the simulators run: per round every node decides its
/// best swap against the frozen ledger, then the serial commit
/// executes the choices from a rotating first node. Up to `attempts`
/// decide + commit passes per round. Stops after the first round that
/// commits nothing. Every commit must conserve the ledger total
/// (destroyed donors out, one produced pair per swap in).
Settled settle(sim::NetworkState& state, const MaxMinBalancer& balancer,
               std::uint32_t max_rounds, std::uint32_t attempts = 1) {
  Settled settled;
  const auto node_count = static_cast<NodeId>(state.node_count());
  for (std::uint32_t round = 0; round < max_rounds; ++round) {
    std::uint64_t round_swaps = 0;
    for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
      state.decide_swaps([&](NodeId x, MaxMinBalancer::Scratch& scratch) {
        return balancer.best_swap(state.ledger(), x, scratch);
      });
      const std::uint64_t before = state.ledger().total_pairs();
      const sim::NetworkState::CommitStats stats = state.commit_swaps(
          balancer, round % node_count, round, attempt,
          [&](NodeId x, const SwapCandidate& candidate) {
            return balancer.is_preferable(state.ledger(), x, candidate.left,
                                          candidate.right);
          });
      EXPECT_EQ(state.ledger().total_pairs(),
                before - stats.pairs_consumed + stats.pairs_produced);
      EXPECT_EQ(stats.pairs_produced, stats.swaps);
      settled.totals.swaps += stats.swaps;
      settled.totals.pairs_consumed += stats.pairs_consumed;
      settled.totals.pairs_produced += stats.pairs_produced;
      round_swaps += stats.swaps;
      if (stats.swaps == 0) break;
    }
    if (round_swaps == 0) {
      settled.quiescent = true;
      break;
    }
  }
  return settled;
}

/// Seed every unordered pair of `ledger` with a uniform count in
/// [0, max_count).
void fill_random(PairLedger& ledger, std::size_t max_count, util::Rng& rng) {
  const auto n = static_cast<NodeId>(ledger.node_count());
  for (NodeId x = 0; x < n; ++x) {
    for (NodeId y = x + 1; y < n; ++y) {
      ledger.add(x, y, static_cast<std::uint32_t>(rng.uniform_index(max_count)));
    }
  }
}

// With generation and consumption frozen, rounds reach a fixed point where
// no node has a preferable swap (the max-min allocation of §4).
TEST(MaxMinProperty, FrozenSystemReachesFixedPoint) {
  util::Rng rng(23);
  const graph::Graph graph = graph::make_cycle(8);
  sim::NetworkState state(graph, 23, sim::TickConcurrency{});
  const MaxMinBalancer balancer = unit_balancer();
  fill_random(state.ledger(), 10, rng);
  const Settled settled = settle(state, balancer, 10000);
  ASSERT_TRUE(settled.quiescent) << "balancing did not reach a fixed point";
  EXPECT_GT(settled.totals.swaps, 0u);
  MaxMinBalancer::Scratch scratch;
  for (NodeId x = 0; x < 8; ++x) {
    EXPECT_FALSE(balancer.best_swap(state.ledger(), x, scratch).has_value());
  }
}

// Parameterized over distillation levels: the fixed point always exists.
class FrozenConvergenceSweep : public ::testing::TestWithParam<double> {};

TEST_P(FrozenConvergenceSweep, TerminatesForAllDistillation) {
  util::Rng rng(29);
  const graph::Graph graph = graph::make_cycle(6);
  sim::NetworkState state(graph, 29, sim::TickConcurrency{});
  const MaxMinBalancer balancer = unit_balancer(GetParam());
  fill_random(state.ledger(), 12, rng);
  const Settled settled = settle(state, balancer, 20000);
  ASSERT_TRUE(settled.quiescent) << "no fixed point at D=" << GetParam();
  MaxMinBalancer::Scratch scratch;
  for (NodeId x = 0; x < 6; ++x) {
    EXPECT_FALSE(balancer.best_swap(state.ledger(), x, scratch).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Distillation, FrozenConvergenceSweep,
                         ::testing::Values(1.0, 2.0, 3.0, 4.0));

TEST(DetourPolicy, RestrictsFarSwaps) {
  // Cycle of 6; node 3 holds pairs with 2 and 4 whose direct distance is
  // 2 via node 3. With slack 0 the swap is on-geodesic and allowed; for
  // nodes far off the geodesic it must be rejected.
  const graph::Graph graph = graph::make_cycle(6);
  const auto distances = graph::all_pairs_distances(graph);
  BalancerPolicy policy;
  policy.detour_slack = 0;
  const MaxMinBalancer balancer(1.0, policy, &distances);

  PairLedger on_path(6);
  on_path.add(3, 2, 4);
  on_path.add(3, 4, 4);
  EXPECT_TRUE(balancer.is_preferable(on_path, 3, 2, 4));

  PairLedger detour(6);
  detour.add(0, 2, 4);  // dist(2,0)=2, dist(0,4)=2; direct dist(2,4)=2
  detour.add(0, 4, 4);  // through-0 distance 4 > 2 + 0 -> rejected
  EXPECT_FALSE(balancer.is_preferable(detour, 0, 2, 4));

  // Positive slack re-allows it.
  BalancerPolicy loose;
  loose.detour_slack = 2;
  const MaxMinBalancer relaxed(1.0, loose, &distances);
  EXPECT_TRUE(relaxed.is_preferable(detour, 0, 2, 4));
}

TEST(DetourPolicy, RequiresDistances) {
  BalancerPolicy policy;
  policy.detour_slack = 1;
  EXPECT_THROW(MaxMinBalancer(1.0, policy, nullptr), PreconditionError);
}

TEST(CommitStats, AccountsConservation) {
  const graph::Graph graph = graph::make_cycle(5);
  sim::NetworkState state(graph, 31, sim::TickConcurrency{});
  const MaxMinBalancer balancer = unit_balancer(2.0);
  // A star of rich pairs at node 0: its leaves have nothing between them,
  // so node 0 has preferable swaps to spend its D = 2 donors on.
  for (NodeId y = 1; y < 5; ++y) state.ledger().add(0, y, 8);
  const std::uint64_t before = state.ledger().total_pairs();
  // One round of up to three decide + commit passes.
  const Settled settled = settle(state, balancer, 1, 3);
  EXPECT_GT(settled.totals.swaps, 0u);
  EXPECT_EQ(state.ledger().total_pairs(), before -
                                              settled.totals.pairs_consumed +
                                              settled.totals.pairs_produced);
  EXPECT_EQ(settled.totals.pairs_produced, settled.totals.swaps);
}

/// Shapes of one node's scan, so the randomized test can assert it
/// exercised every case it claims to.
struct ScanShape {
  bool empty_row = false;
  bool ineligible_partner = false;    // a row entry outside the eligible list
  bool forbidden_zero_first = false;  // first zero-count pair is detour-forbidden
  bool tie_at_minimum = false;        // >1 preferable pair at the chosen count
};

/// The §4 decide as a literal pairwise loop: every candidate pair (i, j)
/// of the eligible list probes its beneficiary count with
/// `beneficiary(a, b)` (count(a, b) by default, or a stale view), keeping
/// the first strict minimum. Capacities stay real-valued, C - D, as the
/// rule is written. Reference oracle for every beneficiary reader of
/// best_swap. It scans every pair (no early exit at 0, which cannot
/// change a first strict minimum) so it can also report the scan's shape.
template <typename Beneficiary>
std::optional<SwapCandidate> pairwise_best_swap(
    const PairLedger& ledger, double distillation,
    const std::vector<std::vector<std::uint32_t>>& distances,
    std::optional<std::uint32_t> detour_slack, NodeId x, ScanShape& shape,
    Beneficiary&& beneficiary_of) {
  shape.empty_row = ledger.row(x).size() == 0;
  std::vector<std::pair<NodeId, double>> eligible;
  ledger.row(x).for_each([&](NodeId y, std::uint32_t count) {
    const double cap = static_cast<double>(count) - distillation;
    if (cap >= 1.0) {
      eligible.emplace_back(y, cap);
    } else {
      shape.ineligible_partner = true;
    }
  });
  std::optional<SwapCandidate> best;
  std::size_t at_best = 0;
  bool seen_zero = false;
  for (std::size_t i = 0; i < eligible.size(); ++i) {
    for (std::size_t j = i + 1; j < eligible.size(); ++j) {
      const auto [a, cap_a] = eligible[i];
      const auto [b, cap_b] = eligible[j];
      const std::uint32_t beneficiary = beneficiary_of(a, b);
      const bool forbidden =
          detour_slack.has_value() &&
          static_cast<std::uint64_t>(distances[a][x]) + distances[x][b] >
              static_cast<std::uint64_t>(distances[a][b]) + *detour_slack;
      if (beneficiary == 0 && !seen_zero) {
        seen_zero = true;
        shape.forbidden_zero_first = forbidden;
      }
      if (static_cast<double>(beneficiary) + 1.0 > std::min(cap_a, cap_b) || forbidden) {
        continue;
      }
      if (!best || beneficiary < best->beneficiary_count) {
        best = SwapCandidate{a, b, beneficiary};
        at_best = 1;
      } else if (beneficiary == best->beneficiary_count) {
        ++at_best;
      }
    }
  }
  shape.tie_at_minimum = at_best > 1;
  return best;
}

std::optional<SwapCandidate> pairwise_best_swap(
    const PairLedger& ledger, double distillation,
    const std::vector<std::vector<std::uint32_t>>& distances,
    std::optional<std::uint32_t> detour_slack, NodeId x, ScanShape& shape) {
  return pairwise_best_swap(ledger, distillation, distances, detour_slack, x, shape,
                            [&ledger](NodeId a, NodeId b) { return ledger.count(a, b); });
}

/// The same pairs in a ledger just above kFullReserveNodeLimit, which has
/// no dense mirror, so best_swap reads it through the merge cursor.
PairLedger embed_above_limit(const PairLedger& ledger) {
  PairLedger embedded(PairLedger::kFullReserveNodeLimit + 1);
  for (NodeId a = 0; a < ledger.node_count(); ++a) {
    ledger.row(a).for_each([&](NodeId b, std::uint32_t count) {
      if (b > a) embedded.add(a, b, count);
    });
  }
  return embedded;
}

void expect_same_swap(const std::optional<SwapCandidate>& actual,
                      const std::optional<SwapCandidate>& expected,
                      const std::string& where) {
  ASSERT_EQ(actual.has_value(), expected.has_value()) << where;
  if (!expected) return;
  EXPECT_EQ(actual->left, expected->left) << where;
  EXPECT_EQ(actual->right, expected->right) << where;
  EXPECT_EQ(actual->beneficiary_count, expected->beneficiary_count) << where;
}

// Both beneficiary readers of best_swap — the dense count mirror (ledgers
// up to kFullReserveNodeLimit nodes) and the sorted-row merge cursor
// (larger ledgers) — pick exactly the swap the pairwise count(a, b) loop
// picks: same pair, same count, same lexicographic first minimum, across
// sparse and dense pair sets, empty rows, integer and fractional D and
// detour policies. Every trial runs twice: on an n-node ledger, and with
// the same pairs embedded in a ledger just above the limit, which has no
// mirror. The oracle reads the embedded ledger, whose count() is a binary
// search over the sorted rows.
TEST(BestSwapKernel, MergeMatchesPairwiseOracle) {
  util::Rng rng(0x5EED);
  ScanShape covered;
  std::uint64_t decisions = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 4 + rng.uniform_index(37);
    PairLedger ledger(n);
    // Density from near-empty (many empty rows, gaps everywhere) to
    // complete (no zero beneficiaries, so ties among small counts).
    const double density = 0.05 + 0.95 * static_cast<double>(rng.uniform_index(101)) / 100.0;
    const std::size_t max_count = 1 + rng.uniform_index(8);
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = a + 1; b < n; ++b) {
        if (rng.bernoulli(density)) {
          ledger.add(a, b, 1 + static_cast<std::uint32_t>(rng.uniform_index(max_count)));
        }
      }
    }

    double distillation = 1.0;
    switch (rng.uniform_index(3)) {
      case 0:
        break;
      case 1:
        distillation = 1.0 + 0.5 * static_cast<double>(rng.uniform_index(4));
        break;
      default:
        // Quarter steps from 0 to 3: integer and fractional D alike.
        distillation = 0.25 * static_cast<double>(rng.uniform_index(13));
        break;
    }

    PairLedger embedded = embed_above_limit(ledger);
    ASSERT_NE(ledger.dense_row(0), nullptr);
    ASSERT_EQ(embedded.dense_row(0), nullptr);

    const graph::Graph graph = rng.bernoulli(0.5) ? graph::make_cycle(n)
                                                  : graph::make_star(n);
    const auto distances = graph::all_pairs_distances(graph);
    std::optional<std::uint32_t> detour_slack;
    if (rng.bernoulli(0.5)) detour_slack = static_cast<std::uint32_t>(rng.uniform_index(3));
    BalancerPolicy policy;
    policy.detour_slack = detour_slack;
    const MaxMinBalancer balancer(distillation, policy, &distances);

    MaxMinBalancer::Scratch scratch;
    for (NodeId x = 0; x < n; ++x) {
      ScanShape shape;
      const auto expected =
          pairwise_best_swap(embedded, distillation, distances, detour_slack, x, shape);
      if (expected) ++decisions;
      for (const PairLedger* reader : {&ledger, &embedded}) {
        const char* kind = reader == &ledger ? "dense" : "sparse";
        expect_same_swap(balancer.best_swap(*reader, x, scratch), expected,
                         std::string(kind) + " trial " + std::to_string(trial) +
                             " node " + std::to_string(x));
      }
      covered.empty_row |= shape.empty_row;
      covered.ineligible_partner |= shape.ineligible_partner;
      covered.forbidden_zero_first |= shape.forbidden_zero_first;
      covered.tie_at_minimum |= shape.tie_at_minimum;
    }
  }
  EXPECT_GT(decisions, 0u);
  EXPECT_TRUE(covered.empty_row);
  EXPECT_TRUE(covered.ineligible_partner);
  EXPECT_TRUE(covered.forbidden_zero_first);
  EXPECT_TRUE(covered.tie_at_minimum);
}

// The scan and the commit recheck test beneficiary < min(room) in
// integers, with room = C - ceil(D) (0 when C <= ceil(D)). Every edge of
// that arithmetic against the real-valued rule: D = 0 (room = C, every
// partner with one pair is eligible), fractional D, and D so large that
// ceil(D) saturates (2^32, 1e300, +infinity: nothing is eligible), with
// counts around 2^31 (own counts and beneficiaries alike, so the
// comparisons happen at that scale, next to the 0 of every absent pair)
// as well as small ones. best_swap is checked against the pairwise loop,
// is_preferable against the caps C - D of every candidate pair.
TEST(BestSwapKernel, IntegerRoomMatchesPairwiseOracleAtZeroDAndNear2To31) {
  util::Rng rng(0xD0);
  ScanShape covered;
  std::uint64_t decisions = 0;
  std::uint64_t preferable = 0;
  for (int trial = 0; trial < 160; ++trial) {
    const std::size_t n = 4 + rng.uniform_index(21);
    const std::uint32_t base = trial % 2 == 0 ? 0u : (1u << 31) - 4;
    const double density = 0.2 + 0.8 * static_cast<double>(rng.uniform_index(101)) / 100.0;
    PairLedger ledger(n);
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = a + 1; b < n; ++b) {
        if (rng.bernoulli(density)) {
          ledger.add(a, b, base + 1 + static_cast<std::uint32_t>(rng.uniform_index(8)));
        }
      }
    }
    const double d =
        std::vector<double>{0.0, 0.0, 0.5, 1.0, 1.5, 2.75, 4294967296.0, 1e300,
                            std::numeric_limits<double>::infinity()}[rng.uniform_index(9)];
    PairLedger embedded = embed_above_limit(ledger);
    const auto distances = graph::all_pairs_distances(graph::make_cycle(n));
    std::optional<std::uint32_t> detour_slack;
    if (rng.bernoulli(0.25)) detour_slack = static_cast<std::uint32_t>(rng.uniform_index(3));
    BalancerPolicy policy;
    policy.detour_slack = detour_slack;
    const MaxMinBalancer balancer(d, policy, &distances);

    MaxMinBalancer::Scratch scratch;
    for (NodeId x = 0; x < n; ++x) {
      ScanShape shape;
      const auto expected =
          pairwise_best_swap(embedded, d, distances, detour_slack, x, shape);
      if (expected) ++decisions;
      for (const PairLedger* reader : {&ledger, &embedded}) {
        const char* kind = reader == &ledger ? "dense" : "sparse";
        expect_same_swap(balancer.best_swap(*reader, x, scratch), expected,
                         std::string(kind) + " D " + std::to_string(d) + " base " +
                             std::to_string(base) + " trial " + std::to_string(trial) +
                             " node " + std::to_string(x));
      }
      covered.tie_at_minimum |= shape.tie_at_minimum;
      covered.ineligible_partner |= shape.ineligible_partner;
      for (NodeId left = 0; left < n; ++left) {
        for (NodeId right = left + 1; right < n; ++right) {
          if (left == x || right == x) continue;
          const auto cap = [&](NodeId y) {
            return static_cast<double>(embedded.count(x, y)) - d;
          };
          const bool detour_ok =
              !detour_slack ||
              static_cast<std::uint64_t>(distances[left][x]) + distances[x][right] <=
                  static_cast<std::uint64_t>(distances[left][right]) + *detour_slack;
          const bool expected_preferable =
              static_cast<double>(embedded.count(left, right)) + 1.0 <=
                  std::min(cap(left), cap(right)) &&
              detour_ok;
          preferable += expected_preferable ? 1 : 0;
          for (const PairLedger* reader : {&ledger, &embedded}) {
            EXPECT_EQ(balancer.is_preferable(*reader, x, left, right), expected_preferable)
                << "D " << d << " base " << base << " trial " << trial << " swap " << left
                << " <- " << x << " -> " << right;
          }
        }
      }
    }
  }
  EXPECT_GT(decisions, 0u);
  EXPECT_GT(preferable, 0u);
  EXPECT_TRUE(covered.tie_at_minimum);
  EXPECT_TRUE(covered.ineligible_partner);
}

// best_swap_with_reports (gossip's decide) against the pairwise loop
// reading the same stale view. Node x holds a report row from every other
// node with a report round and the row's live bitset; the view of C_a(b)
// is the fresher of a's and b's reports, a's on a tie, which is the rule
// gossip's knowledge base uses. Report rounds lie in (now - depth, now]
// with a small depth (1-4), so equal ages are common and the oldest age
// depth - 1 occurs; a fifth of the reporters were never heard from
// (round 0, all-zero row). The reports disagree with the ledger and with
// each other.
TEST(BestSwapKernel, StaleViewMatchesPairwiseOracle) {
  util::Rng rng(0x57A1E);
  ScanShape covered;
  std::uint64_t decisions = 0;
  std::uint64_t equal_age_reads = 0;
  std::uint64_t oldest_reports = 0;
  std::uint64_t unheard_reporters = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 4 + rng.uniform_index(29);
    const double density = 0.05 + 0.95 * static_cast<double>(rng.uniform_index(101)) / 100.0;
    PairLedger ledger(n);
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = a + 1; b < n; ++b) {
        if (rng.bernoulli(density)) {
          ledger.add(a, b, 1 + static_cast<std::uint32_t>(rng.uniform_index(6)));
        }
      }
    }
    // reports[reporter][peer] and rounds[reporter], as node x holds them,
    // with each report's live bitset, read through per-reporter
    // references.
    std::vector<std::vector<std::uint32_t>> reports(n, std::vector<std::uint32_t>(n, 0));
    std::vector<std::uint32_t> rounds(n, 0);
    const std::size_t words = (n + 63) / 64;
    std::vector<std::vector<std::uint64_t>> live(n, std::vector<std::uint64_t>(words, 0));
    std::vector<MaxMinBalancer::Report> last(n);
    for (NodeId r = 0; r < n; ++r) last[r] = {reports[r].data(), live[r].data()};
    const double distillation = std::vector<double>{0.0, 1.0, 1.5}[rng.uniform_index(3)];
    const auto distances = graph::all_pairs_distances(
        rng.bernoulli(0.5) ? graph::make_cycle(n) : graph::make_star(n));
    std::optional<std::uint32_t> detour_slack;
    if (rng.bernoulli(0.3)) detour_slack = static_cast<std::uint32_t>(rng.uniform_index(3));
    BalancerPolicy policy;
    policy.detour_slack = detour_slack;
    const MaxMinBalancer balancer(distillation, policy, &distances);

    MaxMinBalancer::Scratch scratch;
    for (NodeId x = 0; x < n; ++x) {
      const auto depth = static_cast<std::uint32_t>(1 + rng.uniform_index(4));
      const auto now = static_cast<std::uint32_t>(1 + rng.uniform_index(2 * depth));
      for (NodeId r = 0; r < n; ++r) {
        const bool heard = !rng.bernoulli(0.2);
        rounds[r] = heard ? now - static_cast<std::uint32_t>(
                                      rng.uniform_index(std::min(depth, now)))
                          : 0;
        oldest_reports += heard && now - rounds[r] == depth - 1 ? 1 : 0;
        unheard_reporters += heard ? 0 : 1;
        std::fill(live[r].begin(), live[r].end(), 0);
        for (NodeId p = 0; p < n; ++p) {
          reports[r][p] = !heard || p == r || rng.bernoulli(0.3)
                              ? 0
                              : static_cast<std::uint32_t>(rng.uniform_index(5));
          if (reports[r][p] > 0) live[r][p / 64] |= std::uint64_t{1} << (p % 64);
        }
      }
      const auto oracle_view = [&](NodeId a, NodeId b) -> std::uint32_t {
        if (rounds[a] == rounds[b]) {
          ++equal_age_reads;
          return reports[a][b];
        }
        return rounds[a] > rounds[b] ? reports[a][b] : reports[b][a];
      };
      ScanShape shape;
      const auto expected = pairwise_best_swap(ledger, distillation, distances,
                                               detour_slack, x, shape, oracle_view);
      if (expected) ++decisions;
      const auto actual = balancer.best_swap_with_reports(
          ledger, x,
          MaxMinBalancer::ReportView{last.data(), rounds.data(), words},
          scratch);
      expect_same_swap(actual, expected,
                       "trial " + std::to_string(trial) + " node " + std::to_string(x));
      covered.tie_at_minimum |= shape.tie_at_minimum;
      covered.forbidden_zero_first |= shape.forbidden_zero_first;
    }
  }
  EXPECT_GT(decisions, 0u);
  EXPECT_GT(equal_age_reads, 0u);
  EXPECT_GT(oldest_reports, 0u);
  EXPECT_GT(unheard_reporters, 0u);
  EXPECT_TRUE(covered.tie_at_minimum);
  EXPECT_TRUE(covered.forbidden_zero_first);
}

// --- the two exact tiers of the dense decide ---------------------------

// Below the mirror limit best_swap first looks for the lexicographically
// first allowed zero pair in the live bitsets, and only then scans the
// room >= 2 partners. Both tiers against the pairwise loop: zero-heavy
// ledgers (most answers come from tier 1) and zero-free ones (every pair
// live, so tier 1 finds nothing and tier 2 decides), D in {0, 1, 1.5,
// 2.75}, detour policies (some forbidding the first zero), and 130-node
// ledgers whose bitsets span 3 words (zero pairs in the last word).
TEST(BestSwapZeroTier, TiersMatchPairwiseOracle) {
  util::Rng rng(0x2E50);
  ScanShape covered;
  std::uint64_t zero_answers = 0;
  std::uint64_t scan_answers = 0;
  std::uint64_t last_word_zero_answers = 0;
  for (int trial = 0; trial < 90; ++trial) {
    const bool zero_free = trial % 2 == 1;
    const bool three_words = trial % 3 == 0;
    const std::size_t n = three_words ? 130 : 4 + rng.uniform_index(40);
    const double density =
        zero_free ? 1.0 : 0.1 + 0.5 * static_cast<double>(rng.uniform_index(101)) / 100.0;
    // Every sixth ledger has no zero pair touching nodes 0-119, so its
    // zero pairs lie in the bitsets' last words.
    const NodeId all_live_below = trial % 6 == 0 ? 120 : 0;
    PairLedger ledger(n);
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = a + 1; b < n; ++b) {
        if (a < all_live_below || rng.bernoulli(density)) {
          ledger.add(a, b, 1 + static_cast<std::uint32_t>(rng.uniform_index(8)));
        }
      }
    }
    const double d = std::vector<double>{0.0, 1.0, 1.5, 2.75}[rng.uniform_index(4)];
    const auto distances = graph::all_pairs_distances(graph::make_cycle(n));
    std::optional<std::uint32_t> detour_slack;
    if (rng.bernoulli(0.3)) detour_slack = static_cast<std::uint32_t>(rng.uniform_index(2));
    BalancerPolicy policy;
    policy.detour_slack = detour_slack;
    const MaxMinBalancer balancer(d, policy, &distances);
    MaxMinBalancer::Scratch scratch;
    scratch.reserve(n);
    // Every node of the small ledgers, a spread of the 130-node ones (the
    // pairwise loop is quadratic in their ~100 eligible partners).
    for (NodeId x = 0; x < n; x += three_words ? 7 : 1) {
      ScanShape shape;
      const auto expected = pairwise_best_swap(ledger, d, distances, detour_slack, x, shape);
      expect_same_swap(balancer.best_swap(ledger, x, scratch), expected,
                       "n " + std::to_string(n) + " D " + std::to_string(d) + " trial " +
                           std::to_string(trial) + " node " + std::to_string(x));
      if (expected && expected->beneficiary_count == 0) {
        ++zero_answers;
        last_word_zero_answers += expected->right >= 128 ? 1 : 0;
      } else if (expected) {
        ++scan_answers;
      }
      covered.forbidden_zero_first |= shape.forbidden_zero_first;
      covered.tie_at_minimum |= shape.tie_at_minimum;
    }
  }
  EXPECT_GT(zero_answers, 0u);
  EXPECT_GT(scan_answers, 0u);
  EXPECT_GT(last_word_zero_answers, 0u);
  EXPECT_TRUE(covered.forbidden_zero_first);
  EXPECT_TRUE(covered.tie_at_minimum);
}

// A partner with room 1 wins only with a zero beneficiary. x = 0 holds
// room 1 toward node 1 and room 4 toward nodes 2-4 (D = 1); the detour
// rule (slack 0, distance 1 between every pair but the ones set to 2)
// forbids the lexicographically first zero pair (1, 2).
TEST(BestSwapZeroTier, DetourForbiddenZerosFallThroughInOrder) {
  std::vector<std::vector<std::uint32_t>> distances(5, std::vector<std::uint32_t>(5, 1));
  for (NodeId a = 0; a < 5; ++a) distances[a][a] = 0;
  const auto far = [&](NodeId a, NodeId b) { distances[a][b] = distances[b][a] = 2; };
  far(1, 3);
  far(2, 3);
  BalancerPolicy policy;
  policy.detour_slack = 0;
  const MaxMinBalancer balancer(1.0, policy, &distances);
  MaxMinBalancer::Scratch scratch;

  PairLedger ledger(5);
  ledger.add(0, 1, 2);
  for (const NodeId y : {2u, 3u, 4u}) ledger.add(0, y, 5);
  ledger.add(1, 4, 1);
  ledger.add(2, 3, 1);
  ledger.add(2, 4, 2);
  // Zero pairs: (1, 2) forbidden, (1, 3) allowed, (3, 4) forbidden.
  auto best = balancer.best_swap(ledger, 0, scratch);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->left, 1u);
  EXPECT_EQ(best->right, 3u);
  EXPECT_EQ(best->beneficiary_count, 0u);

  // With (1, 3) live too, every zero pair is forbidden: room-1 node 1
  // cannot take part, and the room >= 2 scan picks (2, 3) at count 1.
  ledger.add(1, 3, 1);
  best = balancer.best_swap(ledger, 0, scratch);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->left, 2u);
  EXPECT_EQ(best->right, 3u);
  EXPECT_EQ(best->beneficiary_count, 1u);
  ScanShape shape;
  expect_same_swap(best, pairwise_best_swap(ledger, 1.0, distances, 0u, 0, shape),
                   "all zeros forbidden");
  EXPECT_TRUE(shape.forbidden_zero_first);
}

// --- the eligibility pass (room_masks) ----------------------------------

/// room_masks' oracle: one scalar compare per count of the row, no gate.
void scalar_room_masks(std::span<const std::uint32_t> row, std::uint32_t k,
                       std::vector<std::uint64_t>& eligible,
                       std::vector<std::uint64_t>& roomy) {
  const std::size_t words = (row.size() + 63) / 64;
  eligible.assign(words, 0);
  roomy.assign(words, 0);
  for (std::size_t y = 0; y < row.size(); ++y) {
    if (row[y] <= k) continue;
    eligible[y / 64] |= std::uint64_t{1} << (y % 64);
    if (row[y] - k >= 2) roomy[y / 64] |= std::uint64_t{1} << (y % 64);
  }
}

/// k = ceil(D) saturated at UINT32_MAX, as MaxMinBalancer computes it.
std::uint32_t ceil_distillation(double d) {
  const double whole = std::ceil(d);
  return whole < static_cast<double>(UINT32_MAX) ? static_cast<std::uint32_t>(whole)
                                                 : UINT32_MAX;
}

/// Counts around the signed-compare trap (2^31 - 1, 2^31, 2^31 + 1, the
/// top of the range) mixed with small ones.
const std::vector<std::uint32_t> kTrapCounts{1,
                                             2,
                                             3,
                                             4,
                                             5,
                                             (1u << 31) - 1,
                                             1u << 31,
                                             (1u << 31) + 1,
                                             UINT32_MAX - 1,
                                             UINT32_MAX};

// The mask pass against the scalar oracle, on every row of ledgers whose
// bitsets end at, just before and just past a word boundary (n = 63, 64,
// 65) or span 2 and 3 words, for every x: x = n - 1 reads the last row of
// the mirror, so a tail read past row[n - 1] leaves the allocation (a
// heap overflow under ASan). Sparse ledgers take the bit walk (<= 8 live
// partners in a word), dense ones the compare; k runs from 0 to the
// UINT32_MAX saturation, and counts straddle 2^31, where a signed compare
// would put them below a small k.
TEST(BestSwapMask, VectorPassMatchesScalarOracle) {
  util::Rng rng(0x3A5C);
  std::uint64_t walked_words = 0;
  std::uint64_t compared_words = 0;
  std::uint64_t trap_bits = 0;
  for (const std::size_t n : {3u, 4u, 5u, 63u, 64u, 65u, 100u, 130u}) {
    for (const double density : {0.08, 0.9}) {
      PairLedger ledger(n);
      for (NodeId a = 0; a < n; ++a) {
        for (NodeId b = a + 1; b < n; ++b) {
          if (rng.bernoulli(density)) {
            ledger.add(a, b, kTrapCounts[rng.uniform_index(kTrapCounts.size())]);
          }
        }
      }
      const std::size_t words = ledger.live_words();
      std::vector<std::uint64_t> eligible(words);
      std::vector<std::uint64_t> roomy(words);
      std::vector<std::uint64_t> want_eligible;
      std::vector<std::uint64_t> want_roomy;
      for (const double d : {0.0, 0.5, 1.0, 2.75, 2147483647.0, 2147483648.0, 4e9,
                             std::numeric_limits<double>::infinity()}) {
        const std::uint32_t k = ceil_distillation(d);
        for (NodeId x = 0; x < n; ++x) {
          const std::span<const std::uint32_t> row{ledger.dense_row(x), n};
          room_masks(row, ledger.live_row(x), k, eligible.data(), roomy.data());
          scalar_room_masks(row, k, want_eligible, want_roomy);
          for (std::size_t w = 0; w < words; ++w) {
            const std::string where = "n " + std::to_string(n) + " D " +
                                      std::to_string(d) + " x " + std::to_string(x) +
                                      " word " + std::to_string(w);
            EXPECT_EQ(eligible[w], want_eligible[w]) << where;
            EXPECT_EQ(roomy[w], want_roomy[w]) << where;
            const int live = std::popcount(ledger.live_row(x)[w]);
            walked_words += live > 0 && live <= 8 ? 1 : 0;
            compared_words += live > 8 ? 1 : 0;
          }
          if (k < 8) {
            for (std::size_t y = 0; y < n; ++y) trap_bits += row[y] >= (1u << 31) ? 1 : 0;
          }
        }
      }
    }
  }
  EXPECT_GT(walked_words, 0u);
  EXPECT_GT(compared_words, 0u);
  EXPECT_GT(trap_bits, 0u);
}

// best_swap and best_swap_with_reports on own counts and reports that
// straddle 2^31 (where a signed compare in the mask pass would drop an
// eligible partner) and reach UINT32_MAX, against the pairwise oracles.
// The 100-node ledgers have dense words, so their rows go through the
// compare rather than the bit walk.
TEST(BestSwapMask, CountsAbove2To31MatchPairwiseOracles) {
  util::Rng rng(0xB16);
  std::uint64_t decisions = 0;
  std::uint64_t stale_decisions = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const std::size_t n = trial % 3 == 0 ? 100 : 4 + rng.uniform_index(30);
    const double density = trial % 2 == 0 ? 0.9 : 0.3;
    PairLedger ledger(n);
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = a + 1; b < n; ++b) {
        if (rng.bernoulli(density)) {
          ledger.add(a, b, kTrapCounts[rng.uniform_index(kTrapCounts.size())]);
        }
      }
    }
    const double d = std::vector<double>{0.0, 0.5, 2.75, 4e9}[rng.uniform_index(4)];
    const auto distances = graph::all_pairs_distances(graph::make_cycle(n));
    const MaxMinBalancer balancer(d, {}, &distances);

    // Every reporter heard in round 1 or never (round 0), with rows of
    // the same counts and zeros.
    std::vector<std::vector<std::uint32_t>> reports(n, std::vector<std::uint32_t>(n, 0));
    std::vector<std::uint32_t> rounds(n, 0);
    const std::size_t words = (n + 63) / 64;
    std::vector<std::vector<std::uint64_t>> live(n, std::vector<std::uint64_t>(words, 0));
    std::vector<MaxMinBalancer::Report> last(n);
    for (NodeId r = 0; r < n; ++r) {
      last[r] = {reports[r].data(), live[r].data()};
      rounds[r] = rng.bernoulli(0.9) ? 1 : 0;
      for (NodeId p = 0; p < n; ++p) {
        if (rounds[r] == 0 || p == r || rng.bernoulli(0.4)) continue;
        reports[r][p] = kTrapCounts[rng.uniform_index(kTrapCounts.size())];
        live[r][p / 64] |= std::uint64_t{1} << (p % 64);
      }
    }
    const auto oracle_view = [&](NodeId a, NodeId b) {
      return rounds[a] >= rounds[b] ? reports[a][b] : reports[b][a];
    };

    MaxMinBalancer::Scratch scratch;
    for (NodeId x = 0; x < n; x += n == 100 ? 9 : 1) {
      const std::string where = "trial " + std::to_string(trial) + " D " +
                                std::to_string(d) + " node " + std::to_string(x);
      ScanShape shape;
      const auto expected = pairwise_best_swap(ledger, d, distances, std::nullopt, x, shape);
      decisions += expected ? 1 : 0;
      expect_same_swap(balancer.best_swap(ledger, x, scratch), expected, where);
      const auto expected_stale =
          pairwise_best_swap(ledger, d, distances, std::nullopt, x, shape, oracle_view);
      stale_decisions += expected_stale ? 1 : 0;
      expect_same_swap(
          balancer.best_swap_with_reports(
              ledger, x, MaxMinBalancer::ReportView{last.data(), rounds.data(), words},
              scratch),
          expected_stale, "stale " + where);
    }
  }
  EXPECT_GT(decisions, 0u);
  EXPECT_GT(stale_decisions, 0u);
}

}  // namespace
}  // namespace poq::core
