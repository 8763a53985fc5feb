// Distributed §4 balancing with an explicit classical control plane.
//
// The round-based simulator gives every node "immediate global knowledge
// of all buffers" (§4). Here that assumption is dropped: nodes hold
// *beliefs* about their own qubits' partners and *views* of other nodes'
// counts, both updated only by classical messages (CountUpdate,
// PairUpdate, the consume handshake) that cross the fabric with per-hop
// latency. Physics is evaluated on ground truth: a swap measures the
// repeater's two qubits whatever they are actually entangled with, so
// stale beliefs produce swaps whose real beneficiary differs from the
// intended one, and consumption handshakes can fail when the far end's
// qubit was already spent. The simulator measures exactly the costs §2
// worries about: control bytes, belief staleness, mis-targeted swaps and
// consumption conflicts, as a function of classical latency.
//
// Runs on the sim::VertexProgram substrate: count rows travel as sparse
// CountUpdate messages to a node's current believed partners instead of
// dense n-squared view matrices rebroadcast to all, and the per-epoch
// apply/report/decide kernels fan across the ParallelTickEngine pool
// under the canonical message-merge order, so threads is a real —
// and result-invariant — knob. Every scanning node decides from
// scratch.
//
// Distillation is out of scope here (D = 1): the consistency questions
// are orthogonal to the distillation cascade, which the round-based
// simulator covers.
#pragma once

#include <cstdint>

#include "core/types.hpp"
#include "core/workload.hpp"
#include "graph/graph.hpp"
#include "sim/fault_plan.hpp"
#include "sim/parallel_engine.hpp"
#include "util/stats.hpp"

namespace poq::core {

struct DistributedConfig {
  /// Poisson Bell-pair generation rate per generation edge.
  double generation_rate = 1.0;
  /// Poisson rate of per-node swap scans.
  double scan_rate = 1.0;
  /// Poisson rate at which each node reports its count row to its
  /// believed partners.
  double report_rate = 1.0;
  /// Classical latency per generation-graph hop (time units).
  double latency_per_hop = 0.1;
  /// How often the head consumer retries its handshake.
  double consume_retry_interval = 0.25;
  double duration = 400.0;
  /// Epoch length (time units) of the vertex-program loop: event rates are
  /// discretized per epoch and message latencies round to whole epochs
  /// (sub-epoch latency resolves within the sending epoch's serial phase).
  double dt = 0.25;
  std::uint64_t seed = 1;
  /// Intra-run engine knob: the apply and report/decide kernels fan
  /// across a worker pool; results are bit-identical for every
  /// threads setting (vertex-program canonical merge).
  sim::TickConcurrency tick;

  /// Fault-injection plan (one fault round per epoch). A crash measures
  /// every qubit the node holds — heralded loss: the true far endpoint's
  /// holder forgets its half through the reliable control plane — and
  /// halts the node's generation, scans and reports while down. Disabled
  /// by default (bit-identical historical path).
  sim::FaultConfig faults;
};

struct DistributedResult {
  std::uint64_t pairs_generated = 0;
  std::uint64_t swaps = 0;
  /// Swaps whose actual far endpoints differed from the decision's
  /// intended beneficiary (stale belief at the repeater).
  std::uint64_t stale_swaps = 0;
  std::uint64_t requests_satisfied = 0;
  /// Consumption handshakes that failed (partner qubit gone or moved).
  std::uint64_t consume_conflicts = 0;
  std::uint64_t control_messages = 0;
  std::uint64_t control_bytes = 0;

  util::RunningStats request_latency;
  /// Age (time units) of the beneficiary views used at swap decisions.
  util::RunningStats decision_view_age;

  /// Fault-injection resilience record, in simulated time (empty when
  /// faults are disabled — the historical metric set is untouched).
  sim::FaultStats faults;

  [[nodiscard]] double stale_swap_fraction() const {
    return swaps == 0 ? 0.0
                      : static_cast<double>(stale_swaps) / static_cast<double>(swaps);
  }
  [[nodiscard]] double conflict_fraction() const {
    const double attempts = static_cast<double>(requests_satisfied) +
                            static_cast<double>(consume_conflicts);
    return attempts == 0.0 ? 0.0
                           : static_cast<double>(consume_conflicts) / attempts;
  }
};

/// Run the distributed protocol on `workload` (head-of-line order) over
/// `generation_graph`.
[[nodiscard]] DistributedResult run_distributed(const graph::Graph& generation_graph,
                                                const Workload& workload,
                                                const DistributedConfig& config);

}  // namespace poq::core
