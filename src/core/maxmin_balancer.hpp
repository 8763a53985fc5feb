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
// Every decide picks what one candidate scan (scan_pairs) would pick:
// the pairs of x's eligible partners E are visited in lexicographic
// (i, j) order keeping the first strict minimum. The rule is
// integer-only, and this class is its one home: for an integer count c,
// floor(c - D) = c - k with k = ceil(D), so partner y's room is
// C_x(y) - k (0 when C_x(y) <= k), and since C_y(y') is an integer,
// C_y(y') + 1 <= min(caps) exactly when C_y(y') < min(rooms). The scan
// and the commit recheck both test that.
//
// Below PairLedger::kFullReserveNodeLimit every decide starts with one
// pass over x's dense mirror row (room_masks), which compares the counts
// four lanes at a time against k and k + 1 and yields two bitsets: E
// (room >= 1) and R (room >= 2). The decide then runs in two exact
// tiers. Every eligible room is >= 1, so a beneficiary count of 0 is
// preferable for any eligible pair (detour test permitting), nothing
// beats it, and the scan's answer is then the lexicographically first
// allowed zero pair. Tier 1 finds that pair with the ledger's
// live-partner bitsets: for donors a taken from E's bits in ascending
// order, the set bits of E & ~live(a) above a are a's zero pairs, a word
// at a time. Only when there is none does tier 2 run the scan, and then
// every count is >= 1, so a pair with a room-1 partner can never be
// preferable: the scan runs over the partners listed from R's bits, a
// subsequence of E, which keeps the lexicographic order and the first
// strict minimum. Beneficiary counts are read from the dense count
// mirror there (one load per pair). Above the limit there are no
// bitsets: E is gathered from x's sorted row, and the scan merges each
// donor's sorted row against the whole of it.
//
// A stale view (gossip's reports, ReportView) gets the same mask pass
// and the same two tiers. The view of a pair is the fresher endpoint's
// report (the lower id's on a tie), so first_zero_view_pair takes the
// reporters u from E's bits in ascending order and reads u's zero pairs
// from E & ~live(u), keeping those u's report decides: every zero view
// pair turns up once, from the endpoint whose report is fresher, with
// no sort on the report rounds.
#pragma once

#include <algorithm>
#include <bit>
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
    /// E as a list, gathered from x's sorted row above the mirror limit.
    std::vector<Eligible> eligible;
    /// Tier 2's candidates, listed from R's bits.
    std::vector<Eligible> roomy;
    /// E and R as node bitsets (ceil(n/64) words each), from room_masks.
    std::vector<std::uint64_t> eligible_bits;
    std::vector<std::uint64_t> roomy_bits;

    /// Pre-size for networks of `node_count` nodes (a row holds at most
    /// node_count-1 partners), so the per-node decide never allocates.
    void reserve(std::size_t node_count) {
      const std::size_t words = (node_count + 63) / 64;
      eligible.resize(node_count);
      roomy.resize(node_count);
      eligible_bits.resize(words);
      roomy_bits.resize(words);
    }
  };

  /// One report as a node holds it, read in place from the snapshot it
  /// was sent from: the reporter r's count row (C_r(p) at row[p]) and
  /// its live bitset (`words` 64-bit words; bit p set exactly when
  /// C_r(p) > 0).
  struct Report {
    const std::uint32_t* row;
    const std::uint64_t* live;
  };

  /// What one node knows of every other node's count row (gossip's
  /// knowledge base, per owner): last[r] is reporter r's last report,
  /// sent at round rounds[r]. A reporter never heard from has round 0
  /// and an all-zero row and bitset. The view of C_a(b) is the fresher of
  /// a's and b's reports, a's on a tie.
  struct ReportView {
    const Report* last;
    const std::uint32_t* rounds;
    std::size_t words;

    [[nodiscard]] std::uint32_t count(NodeId reporter, NodeId peer) const {
      return last[reporter].row[peer];
    }

    [[nodiscard]] std::uint64_t live_word(NodeId reporter, std::size_t w) const {
      return last[reporter].live[w];
    }

    [[nodiscard]] std::uint32_t view(NodeId a, NodeId b) const {
      // Both reports are loaded and the rounds pick one, so the
      // freshness test is a select, not a branch.
      const std::uint32_t from_a = count(a, b);
      const std::uint32_t from_b = count(b, a);
      return rounds[a] >= rounds[b] ? from_a : from_b;
    }
  };

  /// Best preferable swap at x under true (global) knowledge; nullopt
  /// when no candidate is preferable. Thread-safe: caller-owned scratch.
  /// Ledgers with a dense count mirror (PairLedger::dense_row) decide
  /// from room_masks in the two tiers: first_zero_pair, then the room
  /// >= 2 scan reading each C_a(b) as dense_row(a)[b]. Larger ledgers
  /// run the merge decide: both the eligible list E and every ledger
  /// row are ascending, so for each donor a = E[i] one forward walk of
  /// sparse_row(a) alongside E[i+1..] yields every C_a(b) (the cursor
  /// entry, or 0 when b is absent) — O(|row(a)| + |E|) per donor rather
  /// than a count() binary search per candidate pair.
  [[nodiscard]] std::optional<SwapCandidate> best_swap(const PairLedger& ledger,
                                                       NodeId x,
                                                       Scratch& scratch) const;

  /// Best preferable swap where the *beneficiary* count C_y(y') is read
  /// through x's stale `reports`; x's own counts are always ground truth
  /// (x owns them). Needs a ledger with a dense count mirror (gossip's
  /// reports are snapshots of it). Two tiers from room_masks:
  /// first_zero_view_pair on E's bits, then the room >= 2 scan reading
  /// reports.view.
  /// Thread-safe: caller-owned scratch.
  [[nodiscard]] std::optional<SwapCandidate> best_swap_with_reports(
      const PairLedger& ledger, NodeId x, const ReportView& reports,
      Scratch& scratch) const;

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

  /// Whether spend draws from its stream at all (D has a fraction); at a
  /// whole D a caller may pass a stream it never derived.
  [[nodiscard]] bool spend_draws() const;

  /// Pairs a consumer pair must hold to be consumed, and the pairs a
  /// hybrid assist manufactures for it: max(1, ceil(D)).
  [[nodiscard]] std::uint32_t consumption_need() const { return std::max(1u, ceil_d_); }

  /// The §4 candidate scan every decide shares. Visits the eligible pairs
  /// (i, j), i < j, in lexicographic order and keeps the first strict
  /// minimum of the beneficiary count, stopping after the donor row that
  /// found a preferable zero (nothing can beat it). Each donor row keeps
  /// its minimum and first index with selects; the result moves only on
  /// a strict improvement, so the choice is the pairwise loop's.
  /// `donor_row(a)` returns a reader of C_a(b) that is called once per j,
  /// at strictly ascending b. Public so that a decide with its own
  /// eligible list and count reader (distributed's beliefs and views)
  /// applies the same rule.
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
  /// walk of x's ledger row into scratch.eligible (the decide uses it
  /// above the mirror limit only).
  [[nodiscard]] std::span<const Eligible> collect_eligible(const PairLedger& ledger,
                                                           NodeId x,
                                                           Scratch& scratch) const;

  /// Below the mirror limit: E and R of x (x's mirror row `row`) into
  /// scratch.eligible_bits and scratch.roomy_bits (room_masks); returns
  /// |E|.
  std::size_t eligibility_masks(const PairLedger& ledger, NodeId x,
                                const std::uint32_t* row, Scratch& scratch) const;

  /// The partners whose bits are set in `bits` (ceil(n/64) words),
  /// ascending, each with its room read from x's mirror row `row`,
  /// written to `out`.
  [[nodiscard]] std::span<const Eligible> listed(const PairLedger& ledger,
                                                 const std::uint64_t* bits,
                                                 const std::uint32_t* row,
                                                 std::vector<Eligible>& out) const;

  /// Tier 1 under true knowledge: the lexicographically first pair
  /// (a, b), a < b, of E (bitset `in_e`) with C_a(b) = 0 that passes the
  /// detour test, read from the ledger's live bitsets; nullopt when none.
  [[nodiscard]] std::optional<std::pair<NodeId, NodeId>> first_zero_pair(
      const PairLedger& ledger, NodeId x, const std::uint64_t* in_e) const;

  double distillation_;
  /// ceil(D), saturated at UINT32_MAX (no count exceeds it, so a huge or
  /// infinite D leaves every room 0 without overflowing a cast).
  std::uint32_t ceil_d_;
  BalancerPolicy policy_;
  const std::vector<std::vector<std::uint32_t>>* generation_distances_;
};

/// The eligibility pass over one mirror row (`row`, C_x(y) at row[y],
/// with x's live bitset `live`, ceil(n/64) words): bit y of `eligible`
/// is set when row[y] > k (room >= 1 at k = ceil(D)), bit y of `roomy`
/// when row[y] > k + 1 (room >= 2); padding bits past n are clear. A
/// word with at most 8 live partners reads just those counts; a denser
/// one compares all its counts, four lanes at a time with SSE2 (an
/// unsigned compare, by flipping the sign bit of both sides), one at a
/// time elsewhere. Reads only row[0, n).
void room_masks(std::span<const std::uint32_t> row, const std::uint64_t* live,
                std::uint32_t k, std::uint64_t* eligible, std::uint64_t* roomy);

/// Tier 1 of the stale-view decide: the lexicographically first pair
/// (a, b), a < b, of E (bitset `in_e`, reports.words words) whose view
/// count reports.view(a, b) is 0 and for which allowed(a, b) holds;
/// nullopt when there is none. It reads only the report rounds and live
/// bitsets. For each reporter u of E, ascending, the bits of
/// E & ~live(u) are the pairs u's report says are zero, and u decides
/// those whose view is its report: rounds[u] > rounds[v], or equal
/// rounds and u < v (so never v = u). Every zero view pair turns up
/// once, and the lexicographic minimum of the allowed ones is kept. Any
/// rounds work; nothing is sorted.
template <typename Allowed>
[[nodiscard]] std::optional<std::pair<NodeId, NodeId>> first_zero_view_pair(
    const std::uint64_t* in_e, const MaxMinBalancer::ReportView& reports,
    Allowed&& allowed) {
  const std::size_t words = reports.words;
  std::optional<std::pair<NodeId, NodeId>> best;
  // Keep the first of u's zero pairs that beats `best` and is allowed,
  // if any. As v ascends, {min(u, v), max(u, v)} ascends
  // lexicographically, so the walk stops at the first pair not below
  // `best`.
  const auto improve = [&](NodeId u) {
    const std::uint32_t round_u = reports.rounds[u];
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t zero = in_e[w] & ~reports.live_word(u, w); zero != 0;
           zero &= zero - 1) {
        const auto v = static_cast<NodeId>(w * 64 + std::countr_zero(zero));
        const std::pair<NodeId, NodeId> pair{std::min(u, v), std::max(u, v)};
        if (best && pair >= *best) return;
        const std::uint32_t round_v = reports.rounds[v];
        const bool decides = round_u > round_v || (round_u == round_v && u < v);
        if (decides && allowed(pair.first, pair.second)) {
          best = pair;
          return;
        }
      }
    }
  };
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t reporters = in_e[w]; reporters != 0; reporters &= reporters - 1) {
      improve(static_cast<NodeId>(w * 64 + std::countr_zero(reporters)));
    }
  }
  return best;
}

}  // namespace poq::core
