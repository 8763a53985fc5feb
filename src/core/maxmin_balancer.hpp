// The paper's max-min distributed swapping protocol (§4).
//
// Node x, holding pairs toward y and y', may perform the swap
// y' <- x -> y. The swap is *preferable* when
//
//   C_y(y') + 1 <= min( C_x(y) - D,  C_x(y') - D )
//
// i.e. x only spends its own counts when the beneficiary pair would still
// be no better off than either donor pair after the swap. Among multiple
// preferable candidates x picks the one with minimal C_y(y'); with
// generation and consumption frozen this greedy process drives the count
// vector to a max-min fair fixed point (no count can rise without lowering
// a smaller one; cf. Jaffe's bottleneck allocation [16]).
//
// §6 extensions implemented as policy knobs:
//   * detour_slack: forbid swaps where x is far off the generation-graph
//     y--y' geodesic ("reducing the likelihood that node i, very distant
//     from both x and y ... implements a swap between x and y").
//   * beneficiary counts can be read through a stale view (gossip.hpp)
//     instead of ground truth.
//
// Every decide runs the same candidate scan (scan_pairs): the eligible
// partners come from one walk of x's ledger row, and the pairs are
// visited in lexicographic (i, j) order keeping the first strict minimum.
// The rule is integer-only, and this class is its one home: for an
// integer count c, floor(c - D) = c - k with k = ceil(D), so partner y's
// room is C_x(y) - k (0 when C_x(y) <= k), and since C_y(y') is an
// integer, C_y(y') + 1 <= min(caps) exactly when C_y(y') < min(rooms).
// The scan and the commit recheck both test that. Under true
// knowledge the beneficiary counts are read from the ledger's dense
// count mirror below PairLedger::kFullReserveNodeLimit (one load per
// pair), and above it by merging each donor's sorted row against the
// eligible list; a stale view is probed per pair instead.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/ledger.hpp"
#include "core/types.hpp"
#include "util/rng.hpp"

namespace poq::core {

/// A chosen swap y' <- x -> y (left = y', right = y).
struct SwapCandidate {
  NodeId left = 0;
  NodeId right = 0;
  /// C_left(right) at decision time (through the decision view).
  std::uint32_t beneficiary_count = 0;
};

/// Optional §6 policy restrictions.
struct BalancerPolicy {
  /// If set, candidate (y, y') at node x is allowed only when
  /// dist(y,x) + dist(x,y') <= dist(y,y') + detour_slack in the
  /// generation graph. Requires distances to be supplied.
  std::optional<std::uint32_t> detour_slack;
};

/// Stateless decision engine for the §4 rule; all mutable state lives in
/// the PairLedger so alternative knowledge models can reuse the logic.
class MaxMinBalancer {
 public:
  /// `distillation` is the uniform overhead D >= 0 (+infinity allowed: no
  /// partner is ever eligible). `generation_distances` (all-pairs hop
  /// counts, aligned with node ids) is required iff policy.detour_slack
  /// is set; the caller keeps it alive.
  MaxMinBalancer(double distillation, BalancerPolicy policy = {},
                 const std::vector<std::vector<std::uint32_t>>* generation_distances =
                     nullptr);

  /// The §4 preferability predicate, evaluated on true counts.
  [[nodiscard]] bool is_preferable(const PairLedger& ledger, NodeId x, NodeId left,
                                   NodeId right) const;

  /// Preferability with the beneficiary count supplied by the caller
  /// (stale-view protocols re-check commits against live *own* counts but
  /// a frozen view of C_left(right)); x's capacities read `ledger`.
  [[nodiscard]] bool is_preferable_given_beneficiary(const PairLedger& ledger,
                                                     NodeId x, NodeId left,
                                                     NodeId right,
                                                     std::uint32_t beneficiary) const;

  /// A partner x holds enough pairs toward to spend on a swap.
  struct Eligible {
    NodeId node;
    /// C_x(node) - ceil(D) >= 1: the swap toward node is affordable for
    /// a beneficiary count below it.
    std::uint32_t room;
  };

  /// Reusable per-caller scratch for the candidate scan. best_swap is
  /// read-only on the ledger and the balancer, so concurrent callers (the
  /// sharded decide phase) are safe as long as each brings its own
  /// Scratch.
  struct Scratch {
    /// Sized, not just reserved: the eligibility walk writes every
    /// partner's slot and advances past the eligible ones only, so it
    /// needs one slot per partner of the scanned row.
    std::vector<Eligible> eligible;

    /// Pre-size for networks of `node_count` nodes (a row holds at most
    /// node_count-1 partners), so the per-node scan never allocates.
    void reserve(std::size_t node_count) {
      eligible.resize(node_count > 0 ? node_count - 1 : 0);
    }
  };

  /// Best preferable swap at x under true (global) knowledge; nullopt when
  /// no candidate is preferable. Thread-safe: caller-owned scratch.
  /// Ledgers with a dense count mirror (PairLedger::dense_row) read each
  /// C_a(b) as dense_row(a)[b]. Larger ledgers run the merge decide: both
  /// the eligible list E and every ledger row are ascending, so for each
  /// donor a = E[i] one forward walk of row(a) alongside E[i+1..] yields
  /// every C_a(b) (the cursor entry, or 0 when b is absent) —
  /// O(|row(a)| + |E|) per donor rather than a count() binary search per
  /// candidate pair.
  [[nodiscard]] std::optional<SwapCandidate> best_swap(const PairLedger& ledger,
                                                       NodeId x,
                                                       Scratch& scratch) const;

  /// Best preferable swap where the *beneficiary* count C_y(y') is read
  /// through `view(y, y')` (possibly stale); x's own counts are always
  /// ground truth (x owns them). Thread-safe: caller-owned scratch.
  template <typename View>
  [[nodiscard]] std::optional<SwapCandidate> best_swap_with_view(
      const PairLedger& ledger, NodeId x, View&& view, Scratch& scratch) const {
    return scan_pairs(x, collect_eligible(ledger, x, scratch), [&view](NodeId a) {
      return [&view, a](NodeId b) { return view(a, b); };
    });
  }

  /// Execute left <- x -> right on the ledger: consumes spend(rng) pairs
  /// of (x,left), then spend(rng) of (x,right), and produces one
  /// (left,right) pair. Returns the amounts actually consumed.
  struct Execution {
    std::uint32_t consumed_left = 0;
    std::uint32_t consumed_right = 0;
  };
  Execution execute_swap(PairLedger& ledger, NodeId x, NodeId left, NodeId right,
                         util::Rng& rng) const;

  /// The pairs one use of D destroys: floor(D), or ceil(D) with
  /// probability D - floor(D) (a Bernoulli draw from `rng` only when
  /// that fraction is positive). Shared by swaps and consumption.
  [[nodiscard]] std::uint32_t spend(util::Rng& rng) const;

  /// Pairs a consumer pair must hold to be consumed, and the pairs a
  /// hybrid assist manufactures for it: max(1, ceil(D)).
  [[nodiscard]] std::uint32_t consumption_need() const { return std::max(1u, ceil_d_); }

 private:
  /// The §6 detour test; true when no detour policy is set.
  [[nodiscard]] bool detour_allowed(NodeId x, NodeId a, NodeId b) const {
    if (!policy_.detour_slack) return true;
    const auto& dist = *generation_distances_;
    const std::uint64_t through_x =
        static_cast<std::uint64_t>(dist[a][x]) + dist[x][b];
    return through_x <= static_cast<std::uint64_t>(dist[a][b]) + *policy_.detour_slack;
  }

  /// The §4 room of an own count: floor(count - D) = count - ceil(D) >= 0.
  [[nodiscard]] std::uint32_t room(std::uint32_t count) const {
    return count > ceil_d_ ? count - ceil_d_ : 0;
  }

  /// x's eligible partners (room(C_x(y)) >= 1), ascending, read in one
  /// walk of x's ledger row into scratch.eligible.
  [[nodiscard]] std::span<const Eligible> collect_eligible(const PairLedger& ledger,
                                                           NodeId x,
                                                           Scratch& scratch) const;

  /// The §4 candidate scan every decide shares. Visits the eligible pairs
  /// (i, j), i < j, in lexicographic order and keeps the first strict
  /// minimum of the beneficiary count, stopping after the donor row that
  /// found a preferable zero (nothing can beat it). Each donor row keeps
  /// its minimum and first index with selects; the result moves only on
  /// a strict improvement, so the choice is the pairwise loop's.
  /// `donor_row(a)` returns a reader of C_a(b) that is called once per j,
  /// at strictly ascending b.
  template <typename DonorRow>
  [[nodiscard]] std::optional<SwapCandidate> scan_pairs(
      NodeId x, std::span<const Eligible> eligible, DonorRow&& donor_row) const {
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    const bool detour = policy_.detour_slack.has_value();
    std::optional<SwapCandidate> best;
    // Every preferable count is below some room, so UINT32_MAX stands for
    // "nothing yet".
    std::uint32_t best_count = UINT32_MAX;
    for (std::size_t i = 0; i + 1 < eligible.size(); ++i) {
      const NodeId a = eligible[i].node;
      const std::uint32_t room_a = eligible[i].room;
      auto beneficiary_of = donor_row(a);
      std::uint32_t row_count = best_count;
      std::size_t row_j = kNone;
      for (std::size_t j = i + 1; j < eligible.size(); ++j) {
        const std::uint32_t beneficiary = beneficiary_of(eligible[j].node);
        bool better =
            beneficiary < std::min(row_count, std::min(room_a, eligible[j].room));
        if (detour) better = better && detour_allowed(x, a, eligible[j].node);
        row_count = better ? beneficiary : row_count;
        row_j = better ? j : row_j;
      }
      if (row_j == kNone) continue;
      best_count = row_count;
      best = SwapCandidate{a, eligible[row_j].node, best_count};
      if (best_count == 0) break;  // cannot improve further
    }
    return best;
  }

  double distillation_;
  /// ceil(D), saturated at UINT32_MAX (no count exceeds it, so a huge or
  /// infinite D leaves every room 0 without overflowing a cast).
  std::uint32_t ceil_d_;
  BalancerPolicy policy_;
  const std::vector<std::vector<std::uint32_t>>* generation_distances_;
};

}  // namespace poq::core
