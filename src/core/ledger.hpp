// Network-wide Bell-pair count state C_x(y).
//
// §4: "each node x maintains a count C_x(y) of the number of Bell pairs it
// stores that are shared with each y in the network (note C_x(y) =
// C_y(x))". Bell pairs between the same endpoints are interchangeable, so
// a symmetric count matrix is the complete state. PairLedger is that
// matrix plus per-node partner sets for fast swap-candidate enumeration,
// and doubles as the instantaneous entanglement graph (§6).
//
// Hot-path layout: every node has a sparse row, its partner ids sorted
// ascending, for enumeration (the §4 eligibility walk, hybrid's route
// search, decohere and purge). Where a pair's count lives depends on the
// node count, chosen once at construction and the only selection rule:
//
//   * Up to kFullReserveNodeLimit nodes, one dense n x n uint32 count
//     mirror (4 n^2 bytes; 40 KB at n = 100) holds every count, and the
//     rows hold ids only. A count-only add or remove is two mirror
//     stores; only an insert or an erase searches a row and shifts it.
//     count(), the commit's preferability recheck and the §4 decide's
//     beneficiary reads are one indexed load (dense_row(x)); gossip
//     copies the whole mirror once per round as its report snapshot
//     (dense_counts()). Beside the mirror, each row keeps a bitset of
//     its live partners (ceil(n/64) words, bit y set exactly when
//     C_x(y) > 0), set on an insert and cleared on an erase, so the §4
//     decide finds zero-count pairs a word at a time (live_row(x), or
//     the whole array live_bits(), which gossip copies with the
//     mirror). Every row
//     pre-reserves the dense worst case, so steady-state add/remove
//     never allocates (the zero-allocation hot-path contract).
//   * Above it (the megascale regime) there is no mirror: each row
//     carries a count vector parallel to its ids, so memory is
//     O(nodes + live pair types), never O(n^2). Rows grow amortized —
//     a dense reserve would itself be the n^2 allocation this layout
//     exists to avoid — and mutations and count readers binary-search
//     the sorted rows (the decide merges each donor's row instead).
//
// row(x) reads x's partners with their counts in either regime, so bulk
// readers (the §4 eligibility walk, the merge decide, the entanglement
// graph) walk a row bounds-checked once, while count() stays the checked
// single-pair probe.
//
// add and remove are the only mutation paths; the generation merge is a
// canonical-edge-order loop of add (sim::NetworkState::generate). Nothing
// in the protocol reads a network-wide minimum — §4 swap decisions read a
// node's own row and its partners' counts — so the ledger keeps no
// minimum tracker, and no record of which nodes a mutation touched:
// every decide reads the counts from scratch.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "graph/graph.hpp"
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

  /// Total pairs currently stored (each pair counted once).
  [[nodiscard]] std::uint64_t total_pairs() const { return total_; }

  /// Nodes y with count(x, y) > 0, ascending.
  [[nodiscard]] std::span<const NodeId> partners(NodeId x) const;

  /// One node's sorted row with its counts, read in place: count_at(k) ==
  /// count(x, partners()[k]). Valid in both regimes — the counts come
  /// from the mirror below kFullReserveNodeLimit and from the row above
  /// it — so a scan over many of x's pairs walks the row once instead of
  /// probing count() per pair. Invalidated by any ledger mutation.
  class RowView {
   public:
    [[nodiscard]] std::span<const NodeId> partners() const { return partners_; }
    [[nodiscard]] std::size_t size() const { return partners_.size(); }
    [[nodiscard]] std::uint32_t count_at(std::size_t k) const {
      return counts_ != nullptr ? counts_[k] : dense_[partners_[k]];
    }
    /// visit(y, count(x, y)) for every partner y, ascending; the regime
    /// is tested once per row rather than once per entry (the form the
    /// hot loops use).
    template <typename Visit>
    void for_each(Visit&& visit) const {
      if (counts_ != nullptr) {
        for (std::size_t k = 0; k < partners_.size(); ++k) visit(partners_[k], counts_[k]);
      } else {
        for (const NodeId y : partners_) visit(y, dense_[y]);
      }
    }

   private:
    friend class PairLedger;
    RowView(std::span<const NodeId> partners, const std::uint32_t* counts,
            const std::uint32_t* dense)
        : partners_(partners), counts_(counts), dense_(dense) {}

    std::span<const NodeId> partners_;
    const std::uint32_t* counts_;  // the row's own counts (above the limit)
    const std::uint32_t* dense_;   // x's mirror row (below the limit)
  };

  /// x's row (see RowView).
  [[nodiscard]] RowView row(NodeId x) const {
    require(x < node_count_, "PairLedger::row: node out of range");
    const std::vector<NodeId>& partners = rows_[x].partners;
    return dense_.empty()
               ? RowView(partners, rows_[x].counts.data(), nullptr)
               : RowView(partners, nullptr, dense_.data() + x * node_count_);
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

  /// Snapshot of pairs with count >= threshold as an undirected graph
  /// (the entanglement graph the hybrid protocol routes over, §6).
  [[nodiscard]] graph::Graph entanglement_graph(std::uint32_t threshold = 1) const;

  /// Up to this node count the dense count mirror (<= 4 MB) holds every
  /// count and every row pre-reserves node_count-1 partner ids (dense
  /// worst case, <= ~4 MB total) so steady-state mutation never
  /// allocates; above it rows carry their own counts, grow amortized,
  /// and memory stays O(nodes + live pair types).
  static constexpr std::size_t kFullReserveNodeLimit = 1024;

  /// Deterministic logical memory accounting: element counts times fixed
  /// per-element constants (sizes, not capacities), so the value is
  /// bit-identical across compilers/allocators and bench gates can
  /// compare it at 1e-9 tolerance.
  [[nodiscard]] std::uint64_t memory_bytes() const;

  /// Verify the ledger's internal consistency; throws InvariantError on
  /// the first violation: every row sorted, symmetric and free of zero
  /// counts; below the limit, the mirror symmetric and zero exactly off
  /// the rows (diagonal included) and each live bitset equal to its row
  /// (diagonal and padding clear); the total equal to a recount. O(n^2)
  /// below the limit, O(live pairs log deg) above it — for tests and
  /// debug checks, never a hot path.
  void check_invariants() const;

 private:
  /// One node's pairs: sorted partner ids, with parallel counts above
  /// the limit only (below it counts stays empty and the mirror holds
  /// them). Both symmetric entries of a pair are maintained.
  struct Row {
    std::vector<NodeId> partners;
    std::vector<std::uint32_t> counts;
  };

  void check(NodeId x, NodeId y) const;
  /// Count of (x, y) read from the mirror, or from x's row above the
  /// limit (0 when absent).
  [[nodiscard]] std::uint32_t row_count(NodeId x, NodeId y) const;
  /// Insert y into x's row at `slot` (its sorted position) / erase x's
  /// entry at `slot`; the count moves with the id only above the limit,
  /// and the live bit flips only below it.
  void insert_entry(NodeId x, std::size_t slot, NodeId y, std::uint32_t amount);
  void erase_entry(NodeId x, std::size_t slot);

  std::size_t node_count_;
  std::vector<Row> rows_;
  /// Row-major n x n counts, sized once at construction up to
  /// kFullReserveNodeLimit (the only count store there), empty above it.
  std::vector<std::uint32_t> dense_;
  /// Row-major n x live_words_ live-partner bitsets, sized with the
  /// mirror (empty above the limit).
  std::size_t live_words_;
  std::vector<std::uint64_t> live_;
  std::uint64_t total_ = 0;
};

}  // namespace poq::core
