// Shortest-path queries over generation/entanglement graphs.
//
// The paper's swap-overhead metric needs hop counts l(c) of shortest paths
// in the generation graph (§5), the hybrid protocol needs shortest paths in
// the instantaneous entanglement graph (§6), and the planned-path baselines
// route over explicit shortest paths.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"

namespace poq::graph {

/// Sentinel distance for unreachable nodes.
inline constexpr std::uint32_t kUnreachable = std::numeric_limits<std::uint32_t>::max();

/// Hop distances from `source` to every node (BFS). Unreachable nodes get
/// kUnreachable.
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(const Graph& graph,
                                                       NodeId source);

/// One shortest path (inclusive of endpoints) from source to target, or
/// nullopt when unreachable. Ties broken toward smaller node ids, so the
/// result is deterministic.
[[nodiscard]] std::optional<std::vector<NodeId>> shortest_path(const Graph& graph,
                                                               NodeId source,
                                                               NodeId target);

/// All-pairs hop distances via repeated BFS: result[u][v].
[[nodiscard]] std::vector<std::vector<std::uint32_t>> all_pairs_distances(
    const Graph& graph);

/// Lazy hop-distance cache: the megascale replacement for eagerly
/// materializing all_pairs_distances (O(n^2) memory — the allocation that
/// capped runs at a few hundred nodes).
///
/// Two modes, chosen by the caller's access pattern:
///   * point queries (`distance`, `row`): BFS per distinct source, rows
///     cached with FIFO eviction under `max_cached_rows` — O(rows * n)
///     memory, right for workload validation and per-satisfaction hop
///     counts, whose source sets are small;
///   * `dense()`: materialize the full matrix once and serve everything
///     from it. Gossip latencies and the detour-slack decide read
///     distances per pair per round (and concurrently, from decide
///     chunks), so they opt into the O(n^2) deliberately — megascale
///     paths simply never call it.
///
/// Values are pure BFS results: caching/eviction can never change what a
/// query returns, so the oracle is transparent to the determinism
/// contract. Point queries mutate the cache and are serial-context only;
/// once dense() has been called, reads are lock-free and safe from
/// concurrent decide chunks.
class DistanceOracle {
 public:
  explicit DistanceOracle(const Graph& graph,
                          std::size_t max_cached_rows = 64);
  /// The oracle keeps a pointer to the graph, so a temporary is refused.
  explicit DistanceOracle(Graph&&, std::size_t = 64) = delete;

  /// Hop distance (kUnreachable when disconnected). Serial contexts only
  /// (may BFS + cache). Served from the dense matrix when materialized.
  [[nodiscard]] std::uint32_t distance(NodeId source, NodeId target);

  /// Full BFS row from `source`; reference valid until the row is
  /// evicted (or forever once dense() has been called).
  [[nodiscard]] const std::vector<std::uint32_t>& row(NodeId source);

  /// Materialize (first call) and return the dense all-pairs matrix.
  [[nodiscard]] const std::vector<std::vector<std::uint32_t>>& dense();

  /// Deterministic logical bytes held (element counts times fixed
  /// constants; see PairLedger::memory_bytes).
  [[nodiscard]] std::uint64_t memory_bytes() const;

 private:
  const Graph* graph_;
  std::size_t max_rows_;
  std::vector<std::vector<std::uint32_t>> dense_;
  bool dense_ready_ = false;
  std::unordered_map<NodeId, std::vector<std::uint32_t>> rows_;
  std::deque<NodeId> eviction_order_;  // FIFO over cached rows
};

}  // namespace poq::graph
