// Executable planned-path baselines.
//
// The paper scores its balancer against the *analytic* optimum (nested
// swapping over the shortest path, §5) and argues the score is
// conservative versus practical planned-path systems. These simulators
// make that comparison executable:
//
//  * connection-oriented ([20]-style): a request reserves every edge of
//    its shortest generation-graph path, exclusively accumulates the raw
//    pairs nested swapping needs, performs the swaps, releases.
//  * connectionless ([32]-style): no reservation; concurrent requests'
//    paths criss-cross and compete for the pairs buffered at shared links.
//
// Both execute the same recursive nested-swapping schedule, whose
// per-edge raw-pair demands and exact swap count come from
// compute_nested_demand().
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "core/workload.hpp"
#include "graph/graph.hpp"
#include "sim/fault_plan.hpp"
#include "sim/parallel_engine.hpp"
#include "util/stats.hpp"

namespace poq::core {

/// Static resource schedule for one usable end-to-end pair over a path.
struct NestedDemand {
  /// Raw elementary pairs needed from each path edge (aligned with the
  /// path's edge sequence).
  std::vector<double> edge_raw_demand;
  /// Total swap operations performed (the exact count, joining swaps
  /// included at every level).
  double swap_count = 0.0;
};

/// Demands of symmetric nested swapping with uniform distillation D over
/// a path of `path_edges` >= 1 edges; every use of a pair costs D pairs.
/// Overwrites `out`, reusing its storage: no allocation when its demand
/// vector's capacity already covers `path_edges`.
void compute_nested_demand(std::size_t path_edges, double distillation,
                           NestedDemand& out);

enum class PlannedPathMode { kConnectionOriented, kConnectionless };

struct PlannedPathConfig {
  double distillation = 1.0;
  double generation_per_edge_per_round = 1.0;
  /// Concurrent in-flight requests; admission is strictly in sequence
  /// order either way.
  std::uint32_t window = 1;
  std::uint32_t max_rounds = 200000;
  std::uint64_t seed = 1;
  PlannedPathMode mode = PlannedPathMode::kConnectionOriented;
  /// Intra-run engine knob: the per-round generation fill is chunked
  /// across a worker pool (per-(round, edge) RNG streams, so results are
  /// bit-identical for any threads). Admission/allocation stay
  /// serial — they are head-of-line by definition.
  sim::TickConcurrency tick;

  /// Fault-injection plan. A crash destroys the raw pairs buffered at the
  /// node's incident links — including pairs already claimed by in-flight
  /// connections, whose per-edge demand resets — and reservation-based
  /// admission stalls behind the outage (the planned-path cliff the paper
  /// predicts). Disabled by default (bit-identical historical path).
  sim::FaultConfig faults;
};

struct PlannedPathResult {
  std::uint64_t requests_satisfied = 0;
  double swaps_performed = 0.0;
  std::uint64_t pairs_generated = 0;
  std::uint32_t rounds = 0;
  bool completed = false;
  double denominator_paper = 0.0;
  double denominator_exact = 0.0;
  /// Rounds from admission to completion per request.
  util::RunningStats service_rounds;
  /// Fault-injection resilience record, in rounds (empty when faults are
  /// disabled — the historical metric set is untouched).
  sim::FaultStats faults;

  [[nodiscard]] double swap_overhead_paper() const {
    return denominator_paper > 0.0 ? swaps_performed / denominator_paper : 0.0;
  }
  [[nodiscard]] double swap_overhead_exact() const {
    return denominator_exact > 0.0 ? swaps_performed / denominator_exact : 0.0;
  }
};

/// Run the baseline on the same workload the balancer consumes.
[[nodiscard]] PlannedPathResult run_planned_path(const graph::Graph& generation_graph,
                                                 const Workload& workload,
                                                 const PlannedPathConfig& config);

}  // namespace poq::core
