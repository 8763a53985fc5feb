// Hybrid oblivious + minimal planning (§6).
//
// "Path-oblivious can also be viewed as a 'seeding' for requests. If the
// Bell pair is not immediately available upon consumption request, the
// consuming pair can then find a shortest path among the existing Bell
// pairs (which could be much shorter than their shortest path on the
// underlying graph)." The hybrid driver runs the normal balancing rounds
// and, whenever the head request is blocked, tries to assemble its pair
// by nested swapping over a shortest path in the *entanglement* graph —
// consuming existing counts, not generation edges. This mitigates the
// starvation the paper observed on long paths.
//
// The balancing rounds run on the tick engine with config.base.tick; the
// assist step itself is a serial phase (it routes over the live ledger
// between the swap and consumption phases).
#pragma once

#include <cstdint>
#include <vector>

#include "core/balancing_sim.hpp"
#include "core/planned_path.hpp"

namespace poq::core {

/// The assist's route search: breadth-first over the live entanglement
/// graph, walking the ledger's partner rows directly. Rows ascend like
/// graph::Graph's sorted adjacency and the target is tested on discovery,
/// so the path is exactly graph::shortest_path's over the graph of live
/// pairs (count >= 1) with the direct pair removed, whenever that path
/// has at most max_hops edges. Every buffer is sized once and
/// reused, so a round's search never allocates.
class AssistRouter {
 public:
  AssistRouter(std::size_t node_count, std::uint32_t max_hops);

  /// Shortest path from pair.first to pair.second that avoids the direct
  /// (first, second) pair and has at most max_hops edges; empty when
  /// there is none. Valid until the next call.
  const std::vector<NodeId>& route(const PairLedger& ledger, const NodePair& pair);

  /// Nested-swapping demand scratch, reserved for the longest path
  /// route() can return.
  NestedDemand& demand() { return demand_; }

 private:
  std::uint32_t max_hops_;
  std::vector<NodeId> parent_;
  std::vector<std::uint32_t> depth_;
  /// seen_[v] == epoch_ marks v as discovered by the current search.
  std::vector<std::uint32_t> seen_;
  std::uint32_t epoch_ = 0;
  std::vector<NodeId> queue_;
  std::vector<NodeId> path_;
  NestedDemand demand_;
};

struct HybridConfig {
  BalancingConfig base;
  /// Assist only when the entanglement path has at most this many hops
  /// (long paths would cost more than waiting for the balancer).
  std::uint32_t max_assist_hops = 8;
};

struct HybridResult {
  BalancingResult base;
  std::uint64_t assists_attempted = 0;
  std::uint64_t assists_succeeded = 0;
  double assist_swaps = 0.0;
};

[[nodiscard]] HybridResult run_hybrid(const graph::Graph& generation_graph,
                                      const Workload& workload,
                                      const HybridConfig& config);

}  // namespace poq::core
