// Round-based evaluation driver (§5).
//
// Reproduces the paper's simulation loop: per round every generation edge
// produces Bell pairs, every node gets an equal chance to perform its
// best preferable swap ("all nodes perform the swapping process at an
// identical rate"), and the head of the consumption-request sequence is
// satisfied as soon as its pair count covers the distillation cost
// (requests "must be satisfied in the order of the sequence").
//
// The reported *swap overhead* is (swaps performed) / sum_c s(l(c)) over
// satisfied consumption events, where s is the paper's nested-swapping
// cost and l(c) the generation-graph shortest-path hop count; the
// denominator under the exact nested cost is also tracked.
//
// The round runs on the tick engine (sim::ParallelTickEngine): its
// generation/swap phases fan across a worker pool with counter-based
// per-entity RNG streams, so results are bit-identical for every
// threads setting (see docs/ARCHITECTURE.md for the determinism
// contract).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "core/ledger.hpp"
#include "core/maxmin_balancer.hpp"
#include "core/types.hpp"
#include "core/workload.hpp"
#include "graph/graph.hpp"
#include "graph/shortest_path.hpp"
#include "sim/network_state.hpp"
#include "sim/parallel_engine.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace poq::core {

struct BalancingConfig {
  /// Uniform distillation overhead D (the paper's swept parameter).
  double distillation = 1.0;
  /// Swap attempts per node per round (rate knob; paper: results were
  /// insensitive to it).
  std::uint32_t swaps_per_node_per_round = 1;
  /// Bell pairs generated per generation edge per round (g = 1 in §5);
  /// fractional rates use Bernoulli rounding.
  double generation_per_edge_per_round = 1.0;
  /// Hard stop to guard against starvation (counts as incomplete).
  std::uint32_t max_rounds = 50000;
  std::uint64_t seed = 1;
  /// §6 policy knobs (distance-penalized swapping).
  BalancerPolicy policy;
  /// Intra-run threads knob of the tick engine.
  sim::TickConcurrency tick;

  // --- streaming workload (0 = fixed-sequence mode) --------------------
  /// Expected new consumption requests per round: each round draws
  /// Poisson(arrival_rate) arrivals from a per-round keyed stream and
  /// assigns each one a uniformly random pair from the virtual consumer
  /// pool. Requests keep the paper's head-of-line semantics; the fixed
  /// workload sequence is ignored while streaming.
  double arrival_rate = 0.0;
  /// Virtual consumer-pair pool size for streaming mode (0 = C(n,2)).
  /// Pool pairs are derived lazily from keyed streams — the pool is never
  /// materialized, so millions of simulated consumer pairs cost nothing.
  std::uint64_t consumer_pool = 0;
  /// Streaming stop condition: finish after satisfying this many requests
  /// (0 = run until max_rounds).
  std::uint64_t max_requests = 0;

  /// Fault-injection plan (node churn, link up/down, rate degradation).
  /// Disabled by default; when disabled the simulation takes its
  /// historical fault-free path bit for bit.
  sim::FaultConfig faults;
};

struct BalancingResult {
  std::uint64_t swaps_performed = 0;
  std::uint64_t pairs_generated = 0;
  std::uint64_t pairs_consumed = 0;
  /// Donor pairs destroyed as swap inputs (distillation included).
  std::uint64_t pairs_spent_on_swaps = 0;
  /// Pairs produced by swaps (one per §4 swap; a hybrid assist books the
  /// end-to-end pairs it adds).
  std::uint64_t pairs_produced_by_swaps = 0;
  /// Pairs held in the ledger when the result was taken: generated +
  /// produced = consumed + spent + stored.
  std::uint64_t pairs_stored = 0;
  std::uint64_t requests_satisfied = 0;
  std::uint32_t rounds = 0;
  bool completed = false;
  /// Paper / exact nested-cost denominators over satisfied requests.
  double denominator_paper = 0.0;
  double denominator_exact = 0.0;
  /// Rounds each satisfied request spent at the head of the queue.
  util::RunningStats head_wait_rounds;
  /// Streaming-mode counters (zero in fixed-sequence mode): total
  /// requests that arrived, and the pending backlog when the run ended.
  std::uint64_t requests_arrived = 0;
  std::uint64_t backlog = 0;
  /// Peak pending backlog over the run (streaming mode).
  std::uint64_t backlog_peak = 0;
  /// Fault-injection resilience record, in rounds (empty when faults are
  /// disabled — the historical metric set is untouched).
  sim::FaultStats faults;
  /// Cumulative wall-clock per phase kernel (observability only — outside
  /// the determinism contract).
  sim::PhaseTimers phase;

  [[nodiscard]] double swap_overhead_paper() const {
    return denominator_paper > 0.0
               ? static_cast<double>(swaps_performed) / denominator_paper
               : 0.0;
  }
  [[nodiscard]] double swap_overhead_exact() const {
    return denominator_exact > 0.0
               ? static_cast<double>(swaps_performed) / denominator_exact
               : 0.0;
  }
};

/// The round-based simulator, decomposed into phases so protocol variants
/// (hybrid seeding, gossip knowledge) can reuse the mechanics.
class BalancingSimulation {
 public:
  BalancingSimulation(const graph::Graph& generation_graph, const Workload& workload,
                      const BalancingConfig& config);
  /// The simulation keeps a reference to the graph, so a temporary is
  /// refused.
  BalancingSimulation(graph::Graph&&, const Workload&, const BalancingConfig&) = delete;

  /// One full round: generate, swap decide + commit, consume.
  void step_round();

  /// Run rounds until every request is satisfied or max_rounds is hit.
  BalancingResult run();

  [[nodiscard]] bool finished() const;

  // --- individual phases, public for protocol variants ---
  /// Fault phase: advance the fault plan to this round, purge crashed
  /// nodes' pairs, track degraded-episode boundaries. Runs between
  /// begin_round and the generation kernel; a no-op when faults are
  /// disabled. Protocol variants driving their own loops (gossip, hybrid)
  /// call it at the same point.
  void fault_phase();
  void generation_phase();
  /// Up to swaps_per_node_per_round decide + serial commit attempts,
  /// stopping at the first that commits nothing, under the §4 rule on
  /// true counts.
  void swap_phase();
  /// The same attempt loop with the protocol's own decide kernel, commit
  /// recheck and optional per-swap observer (gossip: stale beneficiary
  /// views and their ages). Swaps and the pairs they spend and produce
  /// are booked in the result either way.
  void swap_phase(const sim::NetworkState::DecideFn& decide,
                  const sim::NetworkState::RecheckFn& recheck,
                  const sim::NetworkState::ObserveFn& observe = {});
  void consumption_phase();
  void begin_round();  // bookkeeping: increments the round counter

  [[nodiscard]] PairLedger& ledger() { return state_.ledger(); }
  [[nodiscard]] const PairLedger& ledger() const { return state_.ledger(); }
  /// The shared phase-kernel substrate (ledger + pool + keyed streams).
  [[nodiscard]] sim::NetworkState& state() { return state_; }
  /// Result snapshot; syncs the stored-pair total from the ledger, the
  /// per-phase timers from the substrate and the resilience record from
  /// the fault plan.
  [[nodiscard]] const BalancingResult& result() {
    result_.pairs_stored = ledger().total_pairs();
    result_.phase = state_.timers();
    if (fault_plan_) result_.faults = fault_plan_->stats();
    return result_;
  }
  [[nodiscard]] const MaxMinBalancer& balancer() const { return balancer_; }
  [[nodiscard]] std::uint32_t round() const { return result_.rounds; }
  [[nodiscard]] std::size_t head_request() const { return head_; }

  /// Whether requests stream in over time (config.arrival_rate > 0)
  /// instead of replaying the fixed workload sequence.
  [[nodiscard]] bool streaming() const { return config_.arrival_rate > 0.0; }
  /// The head-of-line consumer pair, if any request is waiting. Protocol
  /// variants (hybrid assists) use this instead of indexing the fixed
  /// workload so they work in both modes.
  [[nodiscard]] std::optional<NodePair> head_pair() const;
  /// Consumer pair j of the virtual streaming pool, derived lazily from
  /// its keyed stream (never materialized).
  [[nodiscard]] NodePair pool_pair(std::uint64_t j) const;

  /// Book work a protocol variant did outside the swap phase (hybrid path
  /// assembly): `swaps` swaps that destroyed `spent` pairs and put
  /// `produced` pairs into the ledger, so the swap overhead and the pair
  /// balance (generated + produced = consumed + spent + stored) hold.
  void record_swaps(std::uint64_t swaps, std::uint64_t spent, std::uint64_t produced) {
    result_.swaps_performed += swaps;
    result_.pairs_spent_on_swaps += spent;
    result_.pairs_produced_by_swaps += produced;
  }

  /// All-pairs generation-graph hop distances (shared with variants).
  /// Materializes the dense O(n^2) matrix on first call — gossip's
  /// per-message latency lookups need it; everything else reads hop
  /// counts through the lazy oracle and never pays n^2.
  [[nodiscard]] const std::vector<std::vector<std::uint32_t>>& distances() {
    return oracle_.dense();
  }

  /// Deterministic logical bytes held by the simulation (substrate +
  /// distance cache + pending-request queue). See
  /// sim::NetworkState::memory_bytes.
  [[nodiscard]] std::uint64_t memory_bytes() const;

 private:
  /// Streaming mode: enqueue this round's Poisson arrivals.
  void arrival_phase();

  const graph::Graph& generation_graph_;
  const Workload& workload_;
  BalancingConfig config_;
  graph::DistanceOracle oracle_;
  sim::NetworkState state_;
  MaxMinBalancer balancer_;
  util::Rng consume_rng_;
  BalancingResult result_;
  std::size_t head_ = 0;          // index of the head-of-line request
  std::uint32_t head_since_ = 0;  // round the current head became head
  // Streaming mode: pool indices of pending requests, arrival order.
  std::deque<std::uint64_t> pending_;
  std::size_t pool_size_ = 0;
  // Fault phase state (engaged only when config.faults.enabled()).
  std::optional<sim::FaultPlan> fault_plan_;
};

/// Convenience wrapper: build the simulation and run to completion.
[[nodiscard]] BalancingResult run_balancing(const graph::Graph& generation_graph,
                                            const Workload& workload,
                                            const BalancingConfig& config);

}  // namespace poq::core
