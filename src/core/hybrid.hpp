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

#include "core/balancing_sim.hpp"

namespace poq::core {

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
