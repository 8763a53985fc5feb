// Sparse per-pair decay-metadata store.
//
// Fidelity-aware protocols track, for every stored Bell pair, when it was
// created and at what fidelity. The natural key is the unordered endpoint
// pair — but a dense triangular array of n(n-1)/2 buckets is the n^2
// allocation that caps runs at a few hundred nodes. The store below keys
// buckets by *live* pairs only: an open-addressed map from the packed
// endpoint pair to a slot in a bucket arena. Memory is O(live pair types
// + bucket capacity high-water mark), independent of n^2.
//
// Concurrency contract (mirrors PairLedger's rows): a bucket is touched
// only by the owner of both its endpoints — the decohere kernel chunks
// buckets by their smaller endpoint, and the slice kernels touch only
// their own component's pairs — so bucket mutation never races. Slot
// *creation* (the map insert) happens only on serial paths (add_pair on
// the caller thread); concurrent phases only look up existing slots.
//
// Slots are never unmapped: a bucket that drains to empty keeps its map
// entry and its vector capacity, so the steady state (pairs churning over
// the same generation edges round after round) stops allocating once the
// working set is warm. The ledger invariant `count(x, y) == bucket size`
// means iterating a node's ledger partner row visits exactly the
// non-empty buckets — no store-side iteration order exists or is needed.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/types.hpp"

namespace poq::sim {

/// One stored Bell pair's decay metadata: when it was created and at what
/// fidelity (F(t) = 1/4 + (F0 - 1/4) e^{-t/T} under storage).
struct TrackedPair {
  double created = 0.0;
  double initial_fidelity = 1.0;
};

/// Sparse map from unordered node pair to its metadata bucket.
class PairStore {
 public:
  explicit PairStore(std::size_t node_count);

  /// Bucket for (x, y), creating an empty one on first touch. Serial
  /// contexts only (may insert into the slot map).
  std::vector<TrackedPair>& bucket(core::NodeId x, core::NodeId y);

  /// Bucket for (x, y) if a slot exists (it may be empty), else nullptr.
  /// Safe concurrently with other lookups and bucket-local mutation of
  /// disjoint pairs.
  [[nodiscard]] std::vector<TrackedPair>* find(core::NodeId x, core::NodeId y);
  [[nodiscard]] const std::vector<TrackedPair>* find(core::NodeId x,
                                                     core::NodeId y) const;

  /// Deterministic logical memory accounting: element counts times fixed
  /// per-element constants, bit-identical across compilers/allocators.
  [[nodiscard]] std::uint64_t memory_bytes() const;

 private:
  [[nodiscard]] static std::uint64_t key(core::NodeId x, core::NodeId y) {
    if (x > y) std::swap(x, y);
    return (static_cast<std::uint64_t>(x) << 32) | y;
  }

  std::unordered_map<std::uint64_t, std::uint32_t> slot_of_;
  std::vector<std::vector<TrackedPair>> buckets_;
};

}  // namespace poq::sim
