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
      rows_(node_count),
      dense_(node_count <= kFullReserveNodeLimit ? node_count * node_count
                                                 : 0),
      live_words_(dense_.empty() ? 0 : (node_count + 63) / 64),
      live_(node_count * live_words_, 0) {
  require(node_count >= 2, "PairLedger: need at least 2 nodes");
  // Small networks pre-reserve the dense worst case so steady-state
  // mutation never allocates; megascale networks grow rows amortized.
  if (!dense_.empty()) {
    for (Row& row : rows_) row.partners.reserve(node_count - 1);
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

void PairLedger::insert_entry(NodeId x, std::size_t slot, NodeId y,
                              std::uint32_t amount) {
  Row& row = rows_[x];
  row.partners.insert(row.partners.begin() + static_cast<long>(slot), y);
  if (dense_.empty()) {
    row.counts.insert(row.counts.begin() + static_cast<long>(slot), amount);
  } else {
    live_[x * live_words_ + y / 64] |= std::uint64_t{1} << (y % 64);
  }
}

void PairLedger::erase_entry(NodeId x, std::size_t slot) {
  Row& row = rows_[x];
  const NodeId y = row.partners[slot];
  row.partners.erase(row.partners.begin() + static_cast<long>(slot));
  if (dense_.empty()) {
    row.counts.erase(row.counts.begin() + static_cast<long>(slot));
  } else {
    live_[x * live_words_ + y / 64] &= ~(std::uint64_t{1} << (y % 64));
  }
}

void PairLedger::add(NodeId x, NodeId y, std::uint32_t amount) {
  check(x, y);
  if (amount == 0) return;
  if (!dense_.empty()) {
    // Below the limit the mirror is the count: a live pair's count moves
    // in place, and only a new pair touches (searches) the rows.
    std::uint32_t& mirror_xy = dense_[x * node_count_ + y];
    const std::uint32_t before = mirror_xy;
    require(before + amount > before, "PairLedger::add: count overflow");
    if (before == 0) {
      insert_entry(x, lower_slot(rows_[x].partners, y), y, amount);
      insert_entry(y, lower_slot(rows_[y].partners, x), x, amount);
    }
    mirror_xy = before + amount;
    dense_[y * node_count_ + x] = before + amount;
  } else {
    Row& row_x = rows_[x];
    const std::size_t slot_x = lower_slot(row_x.partners, y);
    if (slot_x == row_x.partners.size() || row_x.partners[slot_x] != y) {
      insert_entry(x, slot_x, y, amount);
      insert_entry(y, lower_slot(rows_[y].partners, x), x, amount);
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
  // Below the limit the mirror answers without a search, and the rows
  // are searched only to erase; above it both rows are searched here.
  std::size_t slot_x = 0;
  std::size_t slot_y = 0;
  std::uint32_t before;
  if (!dense_.empty()) {
    before = dense_[x * node_count_ + y];
    require(before >= amount, "PairLedger::remove: count underflow");
    dense_[x * node_count_ + y] = before - amount;
    dense_[y * node_count_ + x] = before - amount;
  } else {
    Row& row_x = rows_[x];
    slot_x = partner_slot(row_x.partners, y);
    require(slot_x != static_cast<std::size_t>(-1) &&
                row_x.counts[slot_x] >= amount,
            "PairLedger::remove: count underflow");
    slot_y = partner_slot(rows_[y].partners, x);
    before = row_x.counts[slot_x];
    row_x.counts[slot_x] = before - amount;
    rows_[y].counts[slot_y] = before - amount;
  }
  const std::uint32_t after = before - amount;
  total_ -= amount;
  if (after == 0) {
    if (!dense_.empty()) {
      slot_x = lower_slot(rows_[x].partners, y);
      slot_y = lower_slot(rows_[y].partners, x);
    }
    erase_entry(x, slot_x);
    erase_entry(y, slot_y);
  }
}

std::span<const NodeId> PairLedger::partners(NodeId x) const {
  require(x < node_count_, "PairLedger::partners: node out of range");
  return {rows_[x].partners.data(), rows_[x].partners.size()};
}

graph::Graph PairLedger::entanglement_graph(std::uint32_t threshold) const {
  graph::Graph result(node_count_);
  for (NodeId x = 0; x < node_count_; ++x) {
    row(x).for_each([&](NodeId y, std::uint32_t count) {
      if (y > x && count >= threshold) result.add_edge(x, y);
    });
  }
  return result;
}

std::uint64_t PairLedger::memory_bytes() const {
  // Logical accounting with fixed constants: per-node row headers (two
  // vector headers) plus live entries, both symmetric copies counted — a
  // partner id, plus its count above kFullReserveNodeLimit — plus the
  // dense count mirror (4 n^2 bytes) and the live bitsets
  // (8 n ceil(n/64) bytes) below it.
  constexpr std::uint64_t kPerNodeBytes = 48;
  const std::uint64_t per_entry_bytes =
      sizeof(NodeId) + (dense_.empty() ? sizeof(std::uint32_t) : 0);
  std::uint64_t bytes = kPerNodeBytes * node_count_;
  for (const Row& row : rows_) bytes += per_entry_bytes * row.partners.size();
  bytes += sizeof(std::uint32_t) * dense_.size();
  bytes += sizeof(std::uint64_t) * live_.size();
  return bytes;
}

void PairLedger::check_invariants() const {
  std::uint64_t recount = 0;
  for (NodeId x = 0; x < node_count_; ++x) {
    const Row& raw = rows_[x];
    ensure(raw.counts.size() == (dense_.empty() ? raw.partners.size() : 0),
           "PairLedger: a row's counts are not where its regime keeps them");
    const RowView row = this->row(x);
    for (std::size_t k = 0; k < row.size(); ++k) {
      const NodeId y = row.partners()[k];
      ensure(y < node_count_ && y != x, "PairLedger: row holds a bad partner");
      ensure(k == 0 || row.partners()[k - 1] < y,
             "PairLedger: row is not strictly sorted");
      ensure(row.count_at(k) > 0, "PairLedger: row holds a zero count");
      const std::size_t back = partner_slot(rows_[y].partners, x);
      ensure(back != static_cast<std::size_t>(-1) &&
                 this->row(y).count_at(back) == row.count_at(k),
             "PairLedger: rows are not symmetric");
      if (y > x) recount += row.count_at(k);
    }
    if (dense_.empty()) continue;
    // Off the row (the diagonal included) the mirror holds 0: a pair the
    // rows do not list has no count. The live bitset is the row, bit for
    // bit, so its diagonal and the padding past n are clear.
    const std::uint64_t* bits = live_row(x);
    std::size_t k = 0;
    for (NodeId y = 0; y < live_words_ * 64; ++y) {
      const bool live = k < row.size() && row.partners()[k] == y;
      ensure(live || y >= node_count_ || dense_[x * node_count_ + y] == 0,
             "PairLedger: dense mirror holds a count off the rows");
      ensure(((bits[y / 64] >> (y % 64)) & 1) == (live ? 1u : 0u),
             "PairLedger: live bitset differs from the row");
      if (live) ++k;
    }
  }
  ensure(recount == total_, "PairLedger: total differs from a recount");
}

}  // namespace poq::core
