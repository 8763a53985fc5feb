#include "core/ledger.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace poq::core {

namespace {

/// Index of the first partner >= y in the sorted partner list: y's slot
/// when present, its insertion point when absent.
std::size_t lower_slot(const std::vector<NodeId>& partners, NodeId y) {
  return static_cast<std::size_t>(
      std::lower_bound(partners.begin(), partners.end(), y) - partners.begin());
}

/// Index of y in the sorted partner list, or npos when absent.
std::size_t partner_slot(const std::vector<NodeId>& partners, NodeId y) {
  const std::size_t slot = lower_slot(partners, y);
  if (slot == partners.size() || partners[slot] != y) {
    return static_cast<std::size_t>(-1);
  }
  return slot;
}

}  // namespace

PairLedger::PairLedger(std::size_t node_count)
    : node_count_(node_count),
      rows_(node_count <= kFullReserveNodeLimit ? 0 : node_count),
      dense_(node_count <= kFullReserveNodeLimit ? node_count * node_count
                                                 : 0),
      live_words_(dense_.empty() ? 0 : (node_count + 63) / 64),
      live_(node_count * live_words_, 0) {
  require(node_count >= 2, "PairLedger: need at least 2 nodes");
}

void PairLedger::check(NodeId x, NodeId y) const {
  require(x < node_count_ && y < node_count_, "PairLedger: node out of range");
  require(x != y, "PairLedger: no self-pairs (g(x,x) = c(x,x) = 0)");
}

std::uint32_t PairLedger::row_count(NodeId x, NodeId y) const {
  if (!dense_.empty()) return dense_[x * node_count_ + y];
  const SparseRow& row = rows_[x];
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

void PairLedger::add(NodeId x, NodeId y, std::uint32_t amount) {
  check(x, y);
  if (amount == 0) return;
  if (!dense_.empty()) {
    std::uint32_t& mirror_xy = dense_[x * node_count_ + y];
    const std::uint32_t before = mirror_xy;
    require(before + amount > before, "PairLedger::add: count overflow");
    if (before == 0) flip_live(x, y);
    mirror_xy = before + amount;
    dense_[y * node_count_ + x] = before + amount;
  } else {
    SparseRow& row_x = rows_[x];
    const std::size_t slot_x = lower_slot(row_x.partners, y);
    if (slot_x == row_x.partners.size() || row_x.partners[slot_x] != y) {
      SparseRow& row_y = rows_[y];
      const std::size_t slot_y = lower_slot(row_y.partners, x);
      row_x.partners.insert(row_x.partners.begin() + static_cast<long>(slot_x), y);
      row_x.counts.insert(row_x.counts.begin() + static_cast<long>(slot_x), amount);
      row_y.partners.insert(row_y.partners.begin() + static_cast<long>(slot_y), x);
      row_y.counts.insert(row_y.counts.begin() + static_cast<long>(slot_y), amount);
    } else {
      const std::uint32_t before = row_x.counts[slot_x];
      require(before + amount > before, "PairLedger::add: count overflow");
      row_x.counts[slot_x] = before + amount;
      rows_[y].counts[partner_slot(rows_[y].partners, x)] = before + amount;
    }
  }
  total_ += amount;
}

void PairLedger::remove(NodeId x, NodeId y, std::uint32_t amount) {
  check(x, y);
  if (amount == 0) return;
  if (!dense_.empty()) {
    const std::uint32_t before = dense_[x * node_count_ + y];
    require(before >= amount, "PairLedger::remove: count underflow");
    dense_[x * node_count_ + y] = before - amount;
    dense_[y * node_count_ + x] = before - amount;
    if (before == amount) flip_live(x, y);
  } else {
    SparseRow& row_x = rows_[x];
    SparseRow& row_y = rows_[y];
    const std::size_t slot_x = partner_slot(row_x.partners, y);
    require(slot_x != static_cast<std::size_t>(-1) &&
                row_x.counts[slot_x] >= amount,
            "PairLedger::remove: count underflow");
    const std::size_t slot_y = partner_slot(row_y.partners, x);
    const std::uint32_t after = row_x.counts[slot_x] - amount;
    row_x.counts[slot_x] = after;
    row_y.counts[slot_y] = after;
    if (after == 0) {
      row_x.partners.erase(row_x.partners.begin() + static_cast<long>(slot_x));
      row_x.counts.erase(row_x.counts.begin() + static_cast<long>(slot_x));
      row_y.partners.erase(row_y.partners.begin() + static_cast<long>(slot_y));
      row_y.counts.erase(row_y.counts.begin() + static_cast<long>(slot_y));
    }
  }
  total_ -= amount;
}

std::uint64_t PairLedger::remove_node(NodeId x) {
  require(x < node_count_, "PairLedger::remove_node: node out of range");
  const std::uint64_t before = total_;
  if (dense_.empty()) {
    // Last partner first, so each remove erases the end of x's row.
    const SparseRow& sparse = rows_[x];
    while (!sparse.partners.empty()) remove(x, sparse.partners.back(), sparse.counts.back());
  } else {
    row(x).for_each([&](NodeId y, std::uint32_t count) { remove(x, y, count); });
  }
  return before - total_;
}

std::uint64_t PairLedger::memory_bytes() const {
  // Logical accounting with fixed constants: 48 bytes of row bookkeeping
  // per node, plus, below kFullReserveNodeLimit, the dense count mirror
  // (4 n^2 bytes) and the live bitsets (8 n ceil(n/64) bytes), and above
  // it a partner id and a count per row entry, both symmetric copies
  // counted.
  constexpr std::uint64_t kPerNodeBytes = 48;
  std::uint64_t bytes = kPerNodeBytes * node_count_;
  for (const SparseRow& row : rows_) {
    bytes += (sizeof(NodeId) + sizeof(std::uint32_t)) * row.partners.size();
  }
  bytes += sizeof(std::uint32_t) * dense_.size();
  bytes += sizeof(std::uint64_t) * live_.size();
  return bytes;
}

void PairLedger::check_invariants() const {
  std::uint64_t recount = 0;
  for (NodeId x = 0; x < node_count_; ++x) {
    if (dense_.empty()) {
      const SparseRow& row = rows_[x];
      ensure(row.counts.size() == row.partners.size(),
             "PairLedger: a row's ids and counts differ in length");
      for (std::size_t k = 0; k < row.partners.size(); ++k) {
        const NodeId y = row.partners[k];
        ensure(y < node_count_ && y != x, "PairLedger: row holds a bad partner");
        ensure(k == 0 || row.partners[k - 1] < y,
               "PairLedger: row is not strictly sorted");
        ensure(row.counts[k] > 0, "PairLedger: row holds a zero count");
        const std::size_t back = partner_slot(rows_[y].partners, x);
        ensure(back != static_cast<std::size_t>(-1) &&
                   rows_[y].counts[back] == row.counts[k],
               "PairLedger: rows are not symmetric");
        if (y > x) recount += row.counts[k];
      }
      continue;
    }
    // Bit y is set exactly when the mirror count is > 0, so the diagonal
    // (count 0) and the padding past n are clear.
    const std::uint64_t* bits = live_row(x);
    for (NodeId y = 0; y < live_words_ * 64; ++y) {
      const bool live = ((bits[y / 64] >> (y % 64)) & 1) != 0;
      if (y >= node_count_) {
        ensure(!live, "PairLedger: live bitset padding is set");
        continue;
      }
      const std::uint32_t count = dense_[x * node_count_ + y];
      ensure(count == dense_[y * node_count_ + x],
             "PairLedger: dense mirror is not symmetric");
      ensure(y != x || count == 0, "PairLedger: dense mirror diagonal is set");
      ensure(live == (count > 0), "PairLedger: live bitset differs from the mirror");
      if (y > x) recount += count;
    }
  }
  ensure(recount == total_, "PairLedger: total differs from a recount");
}

}  // namespace poq::core
