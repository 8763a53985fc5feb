// Network-wide Bell-pair count state C_x(y).
//
// §4: "each node x maintains a count C_x(y) of the number of Bell pairs it
// stores that are shared with each y in the network (note C_x(y) =
// C_y(x))". Bell pairs between the same endpoints are interchangeable, so
// a symmetric count matrix is the complete state. PairLedger is that
// matrix plus per-node partner sets for fast swap-candidate enumeration,
// and doubles as the instantaneous entanglement graph (§6).
//
// Hot-path layout: the counts live in per-node sparse rows — two parallel
// sorted vectors (partner ids + counts) per node, so above
// kFullReserveNodeLimit memory is O(nodes + live pair types), never
// O(n^2) (below it the mirror and slot index add 6 n^2 bytes).
// partners(x)/pair_counts(x) expose a row read-only; bulk readers (the
// §4 merge decide, gossip's report sizing) walk it directly,
// bounds-checked once per row, while count() stays the checked
// single-pair probe. Below kFullReserveNodeLimit nodes every row
// pre-reserves the dense worst case, so steady-state add/remove never
// allocates (the zero-allocation hot-path contract); above it rows grow
// amortized — the megascale regime, where a dense reserve would itself
// be the n^2 allocation this layout exists to avoid.
//
// Dense count mirror and slot index: below the same limit the ledger also
// keeps an n x n uint32 copy of the counts (4 n^2 bytes beside the rows'
// 8 n^2 reserve; 40 KB at n = 100), written by every row mutation
// (bump_pair, remove) and read through dense_row(x), or whole through
// dense_counts() (gossip copies it once per round as its report
// snapshot), and an n x n uint16 slot index (2 n^2 bytes; 20 KB at
// n = 100): y's position in x's row while C_x(y) > 0. A mutation reads
// the count before from the mirror; when the pair was live and stays
// live it writes both rows' counts through the slot index in O(1), with
// no search (95% of adds and 99.3% of removes over the eight serve_paper
// cells at seed 1). Only an insert or an erase searches a row, shifts it
// and re-indexes the shifted tail. The choice is made once, from the
// node count, and is the only selection rule: small ledgers answer
// count(), the commit's preferability recheck, reader marking's
// common-partner probe and the §4 decide's beneficiary reads with one
// indexed load; above the limit dense_row is null, there is no slot
// index, and mutations and those readers fall back to the sorted rows
// (binary search, or the decide's merge cursor).
//
// add and remove are the only mutation paths; the generation merge is a
// canonical-edge-order loop of add (sim::NetworkState::generate). Nothing
// in the protocol reads a network-wide minimum — §4 swap decisions read a
// node's own row and its partners' counts — so the ledger keeps no
// minimum tracker.
//
// Dirty set: an optional per-node set for the incremental swap-decide
// kernel. When enabled, every count mutation marks exactly the nodes
// whose readable state changed — the two endpoints (they own the counts)
// plus the common partners of the changed pair (the nodes that read
// C_x(y) as a §4 beneficiary count). An unchanged readable view implies
// an unchanged best-swap decision, so a decide kernel that re-runs only
// over the dirty frontier is exactly equivalent to a full rescan
// (sim::NetworkState::decide_swaps leans on this).
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

  /// Add `amount` pairs between x and y (x != y).
  void add(NodeId x, NodeId y, std::uint32_t amount = 1);

  /// Remove `amount` pairs; requires count(x, y) >= amount.
  void remove(NodeId x, NodeId y, std::uint32_t amount = 1);

  /// Total pairs currently stored (each pair counted once).
  [[nodiscard]] std::uint64_t total_pairs() const { return total_; }

  /// Nodes y with count(x, y) > 0, ascending.
  [[nodiscard]] std::span<const NodeId> partners(NodeId x) const;

  /// The counts of x's row, aligned with partners(x):
  /// pair_counts(x)[k] == count(x, partners(x)[k]). Together the two spans
  /// are x's sorted row, so a scan over many of x's pairs can walk it once
  /// instead of probing count() per pair (the §4 merge decide does).
  [[nodiscard]] std::span<const std::uint32_t> pair_counts(NodeId x) const;

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

  /// Snapshot of pairs with count >= threshold as an undirected graph
  /// (the entanglement graph the hybrid protocol routes over, §6).
  [[nodiscard]] graph::Graph entanglement_graph(std::uint32_t threshold = 1) const;

  // --- incremental-decide dirty set ------------------------------------
  // Disabled (and free) by default; sim::NetworkState enables it for the
  // phase-kernel engine. Marking happens inside ledger mutations and
  // draining in the caller's serial phase, so the dirty set needs no
  // synchronization.

  /// Turn on dirty tracking; every node starts dirty.
  void enable_dirty_tracking();
  [[nodiscard]] bool dirty_tracking() const { return !dirty_.empty(); }
  /// Minimum count at which a partner becomes *eligible* for the §4 scan
  /// (the smallest integer C with C - D >= 1, i.e. ceil(D + 1) for a
  /// uniform distillation D). Tightens the marking: a node reads a
  /// partner's exact count only once that partner is eligible, and it
  /// reads a beneficiary count C_x(y) only when both x and y are eligible
  /// partners — so a mutation that stays strictly below the threshold on
  /// both sides marks no endpoint, and beneficiary readers are filtered
  /// by their own eligibility toward the pair. The default (1) assumes
  /// nothing (any nonzero count may be read) and is always safe; callers
  /// with a uniform D may raise it. Protocol-exact, not a heuristic:
  /// under-threshold counts are consulted only through the >= threshold
  /// predicate itself, which such a mutation cannot flip.
  void set_reader_threshold(std::uint32_t minimum_eligible_count);
  [[nodiscard]] std::uint32_t reader_threshold() const {
    return reader_threshold_;
  }
  [[nodiscard]] bool dirty(NodeId x) const {
    return !dirty_.empty() && (mark_overflow_ || dirty_[x] != 0);
  }
  /// Currently dirty nodes (0 when tracking is off; node_count when the
  /// marking epoch overflowed and everything counts as dirty).
  [[nodiscard]] std::size_t dirty_count() const {
    if (dirty_.empty()) return 0;
    if (mark_overflow_) return node_count_;
    return dirty_count_;
  }
  /// Mark one node dirty (e.g. a gossip view install changed what the
  /// node would read at decide time). No-op when tracking is off.
  void mark_dirty(NodeId x);
  void mark_all_dirty();
  /// Append the dirty nodes (ascending) to `out`, clearing their bits.
  /// Returns how many were appended. Serial contexts only. Starts a new
  /// marking epoch (see kMarkingBudgetPerNode).
  std::size_t drain_dirty(std::vector<NodeId>& out);

  /// Precise reader marking is itself O(min-degree) per mutation; in
  /// dense regimes (every node's counts moving every round) that work
  /// buys nothing — everything ends up dirty anyway. Each marking epoch
  /// (decide-to-decide) therefore has a probe budget of
  /// kMarkingBudgetPerNode * node_count; once spent, the ledger latches
  /// "everything dirty" and marking becomes O(1) per mutation for the
  /// rest of the epoch. Over-marking is always safe (dirty nodes just
  /// recompute), so this bounds the marking overhead at O(n) per epoch
  /// without touching the equivalence proof. Sparse steady states never
  /// come close to the budget.
  static constexpr std::int64_t kMarkingBudgetPerNode = 8;

  /// Below this node count every row pre-reserves node_count-1 slots
  /// (dense worst case, <= ~8 MB total) so steady-state mutation never
  /// allocates, and the dense count mirror (<= 4 MB) and its uint16 slot
  /// index (<= 2 MB) are kept; above it rows grow amortized and memory
  /// stays O(nodes + live pair types).
  static constexpr std::size_t kFullReserveNodeLimit = 1024;

  /// Deterministic logical memory accounting: element counts times fixed
  /// per-element constants (sizes, not capacities), so the value is
  /// bit-identical across compilers/allocators and bench gates can
  /// compare it at 1e-9 tolerance.
  [[nodiscard]] std::uint64_t memory_bytes() const;

  /// Verify the ledger's internal consistency; throws InvariantError on
  /// the first violation: every row sorted, symmetric and free of zero
  /// counts; below the limit, the mirror equal to the rows (absent pairs
  /// 0) and the slot index pointing at every live partner; the total
  /// equal to a recount. O(n^2) below the limit, O(live pairs log deg)
  /// above it — for tests and debug checks, never a hot path.
  void check_invariants() const;

 private:
  /// One node's pairs: sorted partner ids with parallel counts. Both
  /// symmetric entries of a pair are maintained (C_x(y) = C_y(x)).
  struct Row {
    std::vector<NodeId> partners;
    std::vector<std::uint32_t> counts;
  };

  void check(NodeId x, NodeId y) const;
  /// Count of (x, y) read from the mirror, or from x's row above the
  /// limit (0 when absent).
  [[nodiscard]] std::uint32_t row_count(NodeId x, NodeId y) const;
  /// add's row mutation: insert-or-increment both symmetric entries by
  /// `amount` (> 0); returns the count before.
  std::uint32_t bump_pair(NodeId x, NodeId y, std::uint32_t amount);
  /// Insert y into x's row at `slot` (its sorted position) / erase x's
  /// entry at `slot`; below the limit both re-index the shifted tail.
  void insert_entry(NodeId x, std::size_t slot, NodeId y, std::uint32_t amount);
  void erase_entry(NodeId x, std::size_t slot);
  /// Point the slot index at x's partners from row position `from` on.
  void reindex_tail(NodeId x, std::size_t from);
  /// Mark everything that reads C_x(y) as it moves before -> after: the
  /// endpoints (unless the count stays strictly under the reader
  /// threshold on both sides) and the eligible common partners.
  void mark_pair_readers(NodeId x, NodeId y, std::uint32_t before,
                         std::uint32_t after);

  std::size_t node_count_;
  std::vector<Row> rows_;                       // sparse symmetric counts
  /// Row-major n x n mirror of the counts, sized once at construction
  /// below kFullReserveNodeLimit, empty above it.
  std::vector<std::uint32_t> dense_;
  /// Row-major n x n slot index, sized with the mirror: slot_[x n + y]
  /// is y's position in x's row while count(x, y) > 0, stale otherwise
  /// (the mirror says which).
  std::vector<std::uint16_t> slot_;
  std::uint64_t total_ = 0;

  // Dirty set (empty vector = tracking off).
  std::vector<std::uint8_t> dirty_;
  std::size_t dirty_count_ = 0;
  std::uint32_t reader_threshold_ = 1;
  /// Probes left in this marking epoch; overflow latches all-dirty.
  std::int64_t mark_budget_ = 0;
  bool mark_overflow_ = false;
};

}  // namespace poq::core
