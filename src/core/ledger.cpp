#include "core/ledger.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace poq::core {

namespace {

/// Index of y in the sorted partner list, or npos when absent.
std::size_t partner_slot(const std::vector<NodeId>& partners, NodeId y) {
  const auto it = std::lower_bound(partners.begin(), partners.end(), y);
  if (it == partners.end() || *it != y) return static_cast<std::size_t>(-1);
  return static_cast<std::size_t>(it - partners.begin());
}

}  // namespace

PairLedger::PairLedger(std::size_t node_count)
    : node_count_(node_count),
      rows_(node_count),
      dense_(node_count <= kFullReserveNodeLimit ? node_count * node_count
                                                 : 0) {
  require(node_count >= 2, "PairLedger: need at least 2 nodes");
  // Small networks pre-reserve the dense worst case so steady-state
  // mutation never allocates; megascale networks grow rows amortized.
  if (node_count <= kFullReserveNodeLimit) {
    for (Row& row : rows_) {
      row.partners.reserve(node_count - 1);
      row.counts.reserve(node_count - 1);
    }
  }
}

void PairLedger::check(NodeId x, NodeId y) const {
  require(x < node_count_ && y < node_count_, "PairLedger: node out of range");
  require(x != y, "PairLedger: no self-pairs (g(x,x) = c(x,x) = 0)");
}

std::uint32_t PairLedger::row_count(NodeId x, NodeId y) const {
  if (!dense_.empty()) return dense_[x * node_count_ + y];
  const Row& row = rows_[x];
  const std::size_t slot = partner_slot(row.partners, y);
  return slot == static_cast<std::size_t>(-1) ? 0 : row.counts[slot];
}

std::uint32_t PairLedger::count(NodeId x, NodeId y) const {
  check(x, y);
  // Sparse ledgers probe the shorter row; the mirror is O(1) either way.
  return dense_.empty() &&
                 rows_[y].partners.size() < rows_[x].partners.size()
             ? row_count(y, x)
             : row_count(x, y);
}

void PairLedger::mark_pair_readers(NodeId x, NodeId y, std::uint32_t before,
                                   std::uint32_t after) {
  if (mark_overflow_) return;
  // The endpoints read C_x(y) (eligibility + donor capacity) only once it
  // can reach the eligibility threshold; below it, the scan consults the
  // count solely through the threshold predicate, which this move left
  // false on both sides.
  if (before >= reader_threshold_ || after >= reader_threshold_) {
    mark_dirty(x);
    mark_dirty(y);
  }
  if (dirty_count_ == node_count_) return;
  // The other readers of C_x(y) are the nodes holding *eligible* pairs
  // toward both x and y (they see its exact value as a beneficiary
  // count, at any magnitude). Scan the smaller row; membership and
  // eligibility in the other row are O(log deg) probes.
  NodeId small = x;
  NodeId big = y;
  if (rows_[big].partners.size() < rows_[small].partners.size()) {
    std::swap(small, big);
  }
  const Row& row = rows_[small];
  const auto deg = static_cast<std::uint32_t>(row.partners.size());
  // Precision has a per-epoch budget; once the scans have cost more than
  // O(n) this epoch, latch everything-dirty and stop paying (dense
  // regimes re-decide everything anyway).
  mark_budget_ -= deg;
  if (mark_budget_ <= 0) {
    mark_overflow_ = true;
    return;
  }
  for (std::uint32_t i = 0; i < deg; ++i) {
    const NodeId z = row.partners[i];
    if (z != big && row.counts[i] >= reader_threshold_ &&
        row_count(big, z) >= reader_threshold_) {
      mark_dirty(z);
    }
  }
}

std::uint32_t PairLedger::bump_pair(NodeId x, NodeId y, std::uint32_t amount) {
  Row& row_x = rows_[x];
  Row& row_y = rows_[y];
  const auto it_x = std::lower_bound(row_x.partners.begin(),
                                     row_x.partners.end(), y);
  std::uint32_t before = 0;
  if (it_x == row_x.partners.end() || *it_x != y) {
    const auto slot_x = static_cast<std::size_t>(it_x - row_x.partners.begin());
    row_x.partners.insert(it_x, y);
    row_x.counts.insert(row_x.counts.begin() + static_cast<long>(slot_x),
                        amount);
    const auto it_y = std::lower_bound(row_y.partners.begin(),
                                       row_y.partners.end(), x);
    const auto slot_y = static_cast<std::size_t>(it_y - row_y.partners.begin());
    row_y.partners.insert(it_y, x);
    row_y.counts.insert(row_y.counts.begin() + static_cast<long>(slot_y),
                        amount);
  } else {
    const auto slot_x = static_cast<std::size_t>(it_x - row_x.partners.begin());
    before = row_x.counts[slot_x];
    row_x.counts[slot_x] = before + amount;
    const std::size_t slot_y = partner_slot(row_y.partners, x);
    row_y.counts[slot_y] = before + amount;
  }
  if (!dense_.empty()) {
    dense_[x * node_count_ + y] += amount;
    dense_[y * node_count_ + x] += amount;
  }
  return before;
}

void PairLedger::add(NodeId x, NodeId y, std::uint32_t amount) {
  check(x, y);
  if (amount == 0) return;
  const std::uint32_t before = bump_pair(x, y, amount);
  total_ += amount;
  if (!dirty_.empty()) mark_pair_readers(x, y, before, before + amount);
}

void PairLedger::remove(NodeId x, NodeId y, std::uint32_t amount) {
  check(x, y);
  if (amount == 0) return;
  Row& row_x = rows_[x];
  Row& row_y = rows_[y];
  const std::size_t slot_x = partner_slot(row_x.partners, y);
  require(slot_x != static_cast<std::size_t>(-1) &&
              row_x.counts[slot_x] >= amount,
          "PairLedger::remove: count underflow");
  const std::uint32_t before = row_x.counts[slot_x];
  const std::uint32_t after = before - amount;
  row_x.counts[slot_x] = after;
  const std::size_t slot_y = partner_slot(row_y.partners, x);
  row_y.counts[slot_y] = after;
  if (!dense_.empty()) {
    dense_[x * node_count_ + y] = after;
    dense_[y * node_count_ + x] = after;
  }
  total_ -= amount;
  if (!dirty_.empty()) mark_pair_readers(x, y, before, after);
  if (after == 0) {
    row_x.partners.erase(row_x.partners.begin() + static_cast<long>(slot_x));
    row_x.counts.erase(row_x.counts.begin() + static_cast<long>(slot_x));
    row_y.partners.erase(row_y.partners.begin() + static_cast<long>(slot_y));
    row_y.counts.erase(row_y.counts.begin() + static_cast<long>(slot_y));
  }
}

std::span<const NodeId> PairLedger::partners(NodeId x) const {
  require(x < node_count_, "PairLedger::partners: node out of range");
  return {rows_[x].partners.data(), rows_[x].partners.size()};
}

std::span<const std::uint32_t> PairLedger::pair_counts(NodeId x) const {
  require(x < node_count_, "PairLedger::pair_counts: node out of range");
  return {rows_[x].counts.data(), rows_[x].counts.size()};
}

graph::Graph PairLedger::entanglement_graph(std::uint32_t threshold) const {
  graph::Graph result(node_count_);
  for (NodeId x = 0; x < node_count_; ++x) {
    const Row& row = rows_[x];
    for (std::size_t i = 0; i < row.partners.size(); ++i) {
      if (row.partners[i] > x && row.counts[i] >= threshold) {
        result.add_edge(x, row.partners[i]);
      }
    }
  }
  return result;
}

std::uint64_t PairLedger::memory_bytes() const {
  // Logical accounting with fixed constants: per-node row headers (two
  // vector headers + the dirty slot) plus live entries (partner id +
  // count, both symmetric copies counted) plus the dense count mirror
  // below kFullReserveNodeLimit (4 n^2 bytes).
  constexpr std::uint64_t kPerNodeBytes = 56;
  constexpr std::uint64_t kPerEntryBytes =
      sizeof(NodeId) + sizeof(std::uint32_t);
  std::uint64_t bytes = kPerNodeBytes * node_count_;
  for (const Row& row : rows_) bytes += kPerEntryBytes * row.partners.size();
  bytes += sizeof(std::uint32_t) * dense_.size();
  return bytes;
}

void PairLedger::enable_dirty_tracking() {
  if (!dirty_.empty()) return;
  dirty_.assign(node_count_, 0);
  mark_budget_ = kMarkingBudgetPerNode * static_cast<std::int64_t>(node_count_);
  mark_all_dirty();
}

void PairLedger::set_reader_threshold(std::uint32_t minimum_eligible_count) {
  require(minimum_eligible_count >= 1,
          "PairLedger: reader threshold must be >= 1");
  reader_threshold_ = minimum_eligible_count;
}

void PairLedger::mark_dirty(NodeId x) {
  if (dirty_.empty() || dirty_[x] != 0) return;
  dirty_[x] = 1;
  ++dirty_count_;
}

void PairLedger::mark_all_dirty() {
  if (dirty_.empty()) return;
  std::fill(dirty_.begin(), dirty_.end(), 1);
  dirty_count_ = node_count_;
}

std::size_t PairLedger::drain_dirty(std::vector<NodeId>& out) {
  if (dirty_.empty()) return 0;
  mark_budget_ = kMarkingBudgetPerNode * static_cast<std::int64_t>(node_count_);
  if (mark_overflow_) {
    // The epoch overflowed: marks were latched, not recorded — the whole
    // network is the frontier.
    mark_overflow_ = false;
    std::fill(dirty_.begin(), dirty_.end(), 0);
    dirty_count_ = 0;
    for (NodeId x = 0; x < node_count_; ++x) out.push_back(x);
    return node_count_;
  }
  if (dirty_count_ == 0) return 0;
  std::size_t appended = 0;
  for (NodeId x = 0; x < node_count_; ++x) {
    if (dirty_[x] != 0) {
      dirty_[x] = 0;
      out.push_back(x);
      ++appended;
    }
  }
  dirty_count_ = 0;
  return appended;
}

}  // namespace poq::core
