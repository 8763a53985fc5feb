// Network-wide Bell-pair count state C_x(y).
//
// §4: "each node x maintains a count C_x(y) of the number of Bell pairs it
// stores that are shared with each y in the network (note C_x(y) =
// C_y(x))". Bell pairs between the same endpoints are interchangeable, so
// a symmetric count matrix is the complete state. PairLedger is that
// matrix plus per-node partner sets for fast swap-candidate enumeration,
// and doubles as the instantaneous entanglement graph (§6).
//
// Hot-path layout: where a node's partners and counts live depends on
// the node count, chosen once at construction and the only selection
// rule:
//
//   * Up to kFullReserveNodeLimit nodes the whole state is one dense
//     n x n uint32 count mirror (4 n^2 bytes; 40 KB at n = 100) and, per
//     node, a live-partner bitset of ceil(n/64) words (bit y set exactly
//     when C_x(y) > 0). An add or remove is two mirror stores, plus two
//     bit flips when the pair is born or dies: nothing is searched,
//     shifted or allocated (the zero-allocation hot-path contract).
//     count() and the §4 decide's beneficiary reads are one load
//     (dense_row), the decide takes x's eligible partners from one
//     compare pass over x's mirror row and finds zero-count pairs a word
//     at a time (live_row), and gossip copies both arrays once per round
//     as its report snapshot (dense_counts, live_bits).
//   * Above it (the megascale regime) there is no mirror: each node has
//     a sparse row, sorted partner ids with parallel counts, so memory is
//     O(nodes + live pair types), never O(n^2). Rows grow amortized, and
//     mutations and count readers binary-search them (the decide merges
//     each donor's row instead, through sparse_row).
//
// row(x).for_each is the one row reader in both regimes: it visits x's
// partners ascending with their counts, testing the regime once per row,
// while count() stays the checked single-pair probe and swap_counts()
// the checked probe of a swap's three counts.
//
// add, remove and apply_swap are the only mutation paths (remove_node,
// the crash purge, is a loop of remove); the generation merge is a
// canonical-edge-order loop of add (sim::NetworkState::generate), and a
// committed §4 swap is one apply_swap: below the limit it validates the
// triple and the three amounts once, then makes the three symmetric
// mirror updates and flips the live bits of the pairs born or dead;
// above it, it runs remove, remove, add, undoing the earlier steps if a
// later one is refused.
// Nothing in the protocol reads a network-wide minimum — §4 swap
// decisions read a node's own row and its partners' counts — so the
// ledger keeps no minimum tracker, and no record of which nodes a
// mutation touched: every decide reads the counts from scratch.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "util/error.hpp"

namespace poq::core {

/// Symmetric Bell-pair counts over a fixed node set.
class PairLedger {
 public:
  explicit PairLedger(std::size_t node_count);

  [[nodiscard]] std::size_t node_count() const { return node_count_; }

  [[nodiscard]] std::uint32_t count(NodeId x, NodeId y) const;

  /// Add `amount` pairs between x and y (x != y); a count past the
  /// uint32 range throws PreconditionError instead of wrapping.
  void add(NodeId x, NodeId y, std::uint32_t amount = 1);

  /// Remove `amount` pairs; requires count(x, y) >= amount.
  void remove(NodeId x, NodeId y, std::uint32_t amount = 1);

  /// The three counts of the swap left <- x -> right.
  struct SwapCounts {
    std::uint32_t left = 0;         ///< C_x(left)
    std::uint32_t right = 0;        ///< C_x(right)
    std::uint32_t beneficiary = 0;  ///< C_left(right)
  };

  /// The counts of the swap left <- x -> right, with the triple checked
  /// once: throws PreconditionError unless x, left and right are three
  /// distinct nodes in range.
  [[nodiscard]] SwapCounts swap_counts(NodeId x, NodeId left, NodeId right) const {
    check_swap(x, left, right);
    return {pair_count(x, left), pair_count(x, right), pair_count(left, right)};
  }

  /// Commit the swap left <- x -> right: remove spend_left pairs of
  /// (x, left) and spend_right of (x, right), and add one (left, right)
  /// pair. The triple and all three amounts are checked before anything
  /// changes, so a refusal (PreconditionError: a spend above its count,
  /// or C_left(right) at the uint32 limit) leaves the ledger untouched.
  /// Below kFullReserveNodeLimit that is three symmetric mirror updates
  /// and the live-bit flips of the pairs born or dead; above it, remove,
  /// remove, add, where a refused step undoes the steps before it.
  void apply_swap(NodeId x, NodeId left, NodeId right, std::uint32_t spend_left,
                  std::uint32_t spend_right);

  /// Total pairs currently stored (each pair counted once).
  [[nodiscard]] std::uint64_t total_pairs() const { return total_; }

  /// Remove every pair x holds; returns how many (each pair counted
  /// once). The crash purge.
  std::uint64_t remove_node(NodeId x);

  /// x's sorted row above kFullReserveNodeLimit: counts[k] is
  /// count(x, partners[k]), partners ascending. Both symmetric entries of
  /// a pair are kept.
  struct SparseRow {
    std::vector<NodeId> partners;
    std::vector<std::uint32_t> counts;
  };

  /// One node's partners with their counts, read in place. Valid in both
  /// regimes — the live bitset and the mirror below
  /// kFullReserveNodeLimit, the sparse row above it. Invalidated by any
  /// ledger mutation, except that a for_each visit may remove the pair it
  /// is visiting below the limit.
  class RowView {
   public:
    /// Number of partners.
    [[nodiscard]] std::size_t size() const {
      if (ledger_->dense_.empty()) return ledger_->rows_[x_].partners.size();
      std::size_t size = 0;
      for (std::size_t w = 0; w < ledger_->live_words_; ++w) {
        size += std::popcount(ledger_->live_[x_ * ledger_->live_words_ + w]);
      }
      return size;
    }
    /// visit(y, count(x, y)) for every partner y, ascending; the regime
    /// is tested once per row rather than once per entry.
    template <typename Visit>
    void for_each(Visit&& visit) const {
      if (ledger_->dense_.empty()) {
        const SparseRow& row = ledger_->rows_[x_];
        for (std::size_t k = 0; k < row.partners.size(); ++k) visit(row.partners[k], row.counts[k]);
        return;
      }
      const std::size_t words = ledger_->live_words_;
      const std::uint64_t* live = ledger_->live_.data() + x_ * words;
      const std::uint32_t* dense = ledger_->dense_.data() + x_ * ledger_->node_count_;
      for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = live[w]; bits != 0; bits &= bits - 1) {
          const auto y = static_cast<NodeId>(w * 64 + std::countr_zero(bits));
          visit(y, dense[y]);
        }
      }
    }

   private:
    friend class PairLedger;
    RowView(const PairLedger& ledger, NodeId x) : ledger_(&ledger), x_(x) {}

    const PairLedger* ledger_;
    NodeId x_;
  };

  /// x's row (see RowView).
  [[nodiscard]] RowView row(NodeId x) const {
    require(x < node_count_, "PairLedger::row: node out of range");
    return RowView(*this, x);
  }

  /// x's sparse row; throws below the limit, where the live bitset is
  /// the row.
  [[nodiscard]] const SparseRow& sparse_row(NodeId x) const {
    require(x < node_count_ && dense_.empty(),
            "PairLedger::sparse_row: node out of range, or a mirrored ledger");
    return rows_[x];
  }

  /// x's row of the dense count mirror: dense_row(x)[y] == count(x, y)
  /// for every y != x, absent pairs included (0). Null above
  /// kFullReserveNodeLimit nodes, where only the sparse rows exist.
  [[nodiscard]] const std::uint32_t* dense_row(NodeId x) const {
    require(x < node_count_, "PairLedger::dense_row: node out of range");
    return dense_.empty() ? nullptr : dense_.data() + x * node_count_;
  }

  /// The whole dense count mirror, row-major n x n: row x is
  /// dense_row(x), and the diagonal is 0. Empty above
  /// kFullReserveNodeLimit nodes.
  [[nodiscard]] std::span<const std::uint32_t> dense_counts() const { return dense_; }

  /// Words per live-partner bitset: ceil(n/64) below
  /// kFullReserveNodeLimit nodes, 0 above it.
  [[nodiscard]] std::size_t live_words() const { return live_words_; }

  /// x's live-partner bitset, live_words() words: bit y (word y / 64,
  /// bit y % 64) is set exactly when count(x, y) > 0, so the diagonal
  /// and the padding past n are clear. Null above kFullReserveNodeLimit.
  [[nodiscard]] const std::uint64_t* live_row(NodeId x) const {
    require(x < node_count_, "PairLedger::live_row: node out of range");
    return live_.empty() ? nullptr : live_.data() + x * live_words_;
  }

  /// Every row's bitset, row-major n x live_words(): row x is
  /// live_row(x). Empty above kFullReserveNodeLimit nodes.
  [[nodiscard]] std::span<const std::uint64_t> live_bits() const { return live_; }

  /// Up to this node count the dense count mirror (<= 4 MB) and the
  /// live bitsets (<= 128 KB) hold every count and partner set, sized
  /// once, so mutation never allocates; above it rows are sorted id and
  /// count vectors that grow amortized, and memory stays O(nodes + live
  /// pair types).
  static constexpr std::size_t kFullReserveNodeLimit = 1024;

  /// Deterministic logical memory accounting: element counts times fixed
  /// per-element constants (sizes, not capacities), so the value is
  /// bit-identical across compilers/allocators and bench gates can
  /// compare it at 1e-9 tolerance.
  [[nodiscard]] std::uint64_t memory_bytes() const;

  /// Verify the ledger's internal consistency; throws InvariantError on
  /// the first violation. Below the limit: each live bit set exactly when
  /// its mirror count is > 0, the mirror symmetric, and the diagonal and
  /// the bitset padding past n clear. Above it: every row strictly
  /// sorted, symmetric and free of zero counts. In both, the total equal
  /// to a recount. O(n^2) below the limit, O(live pairs log deg) above it
  /// — for tests and debug checks, never a hot path.
  void check_invariants() const;

 private:
  void check(NodeId x, NodeId y) const;
  /// Throws PreconditionError unless x, left and right are three
  /// distinct nodes in range.
  void check_swap(NodeId x, NodeId left, NodeId right) const {
    require(x < node_count_ && left < node_count_ && right < node_count_ && x != left &&
                x != right && left != right,
            "PairLedger: a swap needs three distinct nodes in range");
  }
  /// Count of (x, y) read from x's sparse row above the limit (0 when
  /// absent).
  [[nodiscard]] std::uint32_t row_count(NodeId x, NodeId y) const;
  /// count(x, y) without the range checks: one mirror load, or a probe
  /// of the shorter sparse row.
  [[nodiscard]] std::uint32_t pair_count(NodeId x, NodeId y) const {
    if (!dense_.empty()) return dense_[x * node_count_ + y];
    return rows_[y].partners.size() < rows_[x].partners.size() ? row_count(y, x)
                                                                : row_count(x, y);
  }
  /// Set both mirror entries of (x, y) to `count`, flipping the pair's
  /// live bits when it is born or dies (below the limit).
  void set_mirror(NodeId x, NodeId y, std::uint32_t before, std::uint32_t count) {
    dense_[x * node_count_ + y] = count;
    dense_[y * node_count_ + x] = count;
    if ((before == 0) != (count == 0)) flip_live(x, y);
  }
  /// Flip the pair's bit in both live bitsets (below the limit): set
  /// when the pair is born, cleared when it dies.
  void flip_live(NodeId x, NodeId y) {
    live_[x * live_words_ + y / 64] ^= std::uint64_t{1} << (y % 64);
    live_[y * live_words_ + x / 64] ^= std::uint64_t{1} << (x % 64);
  }

  std::size_t node_count_;
  /// The sparse rows, one per node above kFullReserveNodeLimit, none
  /// below it.
  std::vector<SparseRow> rows_;
  /// Row-major n x n counts, sized once at construction up to
  /// kFullReserveNodeLimit, empty above it.
  std::vector<std::uint32_t> dense_;
  /// Row-major n x live_words_ live-partner bitsets, sized with the
  /// mirror (empty above the limit).
  std::size_t live_words_;
  std::vector<std::uint64_t> live_;
  std::uint64_t total_ = 0;
};

}  // namespace poq::core
