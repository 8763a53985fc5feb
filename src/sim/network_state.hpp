// Shared simulation substrate for the phase-kernel protocols.
//
// Every round/slice-based protocol in the repo decomposes into the same
// ordered phase kernels over one network state:
//
//   generate -> observe/message-merge -> decide -> commit -> decohere
//
// NetworkState owns the state those kernels share — the Bell-pair count
// ledger, optional per-pair decay metadata (creation time + fidelity),
// the ParallelTickEngine worker pool, and the counter-based keyed RNG
// streams — so the protocol drivers in core/ (balancing, gossip, hybrid,
// fidelity) are reduced to sequencing kernels and supplying the
// protocol-defining decide/observe callbacks. The scheduling/ordering of
// swaps is the protocol's degree of freedom; the substrate is common, and
// it is the only one: every round/slice protocol runs these kernels, at
// one thread as at many.
//
// Determinism contract: kernels draw
// randomness from streams keyed per (phase-tag, round, entity), split
// work into canonical contiguous chunks, and merge all effects in
// canonical entity order — so results are bit-identical for every threads
// setting. The swap commit is serial: it executes decided swaps one at
// a time in canonical rotating order, each re-checked against the live
// ledger, so it needs no merge at all.
//
// Every decide is computed from scratch: the decide kernel re-runs the
// protocol's callback for every node each round and keeps no candidate
// from an earlier round, so the ledger records nothing about which nodes
// a mutation touched.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/ledger.hpp"
#include "core/maxmin_balancer.hpp"
#include "graph/graph.hpp"
#include "sim/fault_plan.hpp"
#include "sim/pair_store.hpp"
#include "sim/parallel_engine.hpp"
#include "util/rng.hpp"

namespace poq::sim {

/// Decay model for tracked pairs (fidelity-aware protocols).
struct DecayModel {
  /// Memory decoherence time constant T (simulation time units).
  double memory_time_constant = 50.0;
  /// Below this fidelity a stored pair is useless and discarded.
  double usable_fidelity = 0.70;
};

class NetworkState {
 public:
  /// `tick` sizes the worker pool. Pass `decay` to track per-pair
  /// creation time/fidelity (the decohere kernel).
  NetworkState(const graph::Graph& generation_graph, std::uint64_t seed,
               const TickConcurrency& tick,
               std::optional<DecayModel> decay = std::nullopt);
  /// The state keeps a reference to the graph, so a temporary is refused.
  NetworkState(graph::Graph&&, std::uint64_t, const TickConcurrency&,
               std::optional<DecayModel> = std::nullopt) = delete;

  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] std::size_t node_count() const { return ledger_.node_count(); }
  [[nodiscard]] const graph::Graph& generation_graph() const { return graph_; }
  [[nodiscard]] core::PairLedger& ledger() { return ledger_; }
  [[nodiscard]] const core::PairLedger& ledger() const { return ledger_; }
  /// Worker pool the kernels fan across.
  [[nodiscard]] ParallelTickEngine& pool() { return *pool_; }
  /// Cumulative per-phase wall-clock spent in this state's kernels.
  /// Mutable so drivers with bespoke kernel loops (fidelity slices) can
  /// account their phases here too.
  [[nodiscard]] PhaseTimers& timers() { return timers_; }
  [[nodiscard]] const PhaseTimers& timers() const { return timers_; }

  // --- generation kernel ----------------------------------------------
  /// Add `rate` Bell pairs per generation edge (fractional rates use
  /// Bernoulli rounding). Each edge's rounding flag comes from a stream
  /// keyed (seed, generation-tag, round, edge) — batched per chunk
  /// through util::Rng::bernoulli_batch, bit-identical to the scalar
  /// draws — and merges into the ledger with one PairLedger::add per edge,
  /// in canonical edge order (masked edges skipped), so the rows are
  /// exactly those of a scalar add loop. Integral rates skip the
  /// draw pass entirely and merge directly. Returns the number of pairs
  /// generated.
  std::uint64_t generate(std::uint32_t round, double rate);

  // --- fault phase ------------------------------------------------------
  /// Attach the driver's fault plan (may be null to detach). While a plan
  /// is attached, generate() scales the rate by the plan's current rate
  /// factor and masks unavailable edges out of the sweep. Masking never
  /// shifts another edge's keyed stream: the kernel still derives the
  /// per-(round, edge) rounding flag for every edge and only skips the
  /// masked edge's add, so the same plan trajectory yields bit-identical
  /// results at every threads setting.
  void set_fault_plan(const FaultPlan* plan) { fault_plan_ = plan; }
  [[nodiscard]] const FaultPlan* fault_plan() const { return fault_plan_; }
  /// Crash purge: remove every stored pair the node shares — the decay
  /// metadata buckets when pairs are tracked, then the ledger counts
  /// (PairLedger::remove_node). Serial phase; returns the pairs purged.
  std::uint64_t purge_node(core::NodeId x);

  // --- swap decide kernel ---------------------------------------------
  /// Per-node swap choice against the frozen (post-generation) state.
  /// Must be pure on shared state; each invocation gets a caller-owned
  /// scratch.
  using DecideFn = std::function<std::optional<core::SwapCandidate>(
      core::NodeId, core::MaxMinBalancer::Scratch&)>;
  /// Recompute the candidate table: fan `decide` across dynamically
  /// scheduled chunks of every node — chunk boundaries are canonical, so
  /// the schedule never affects results.
  void decide_swaps(const DecideFn& decide);
  [[nodiscard]] const std::vector<std::optional<core::SwapCandidate>>&
  candidates() const {
    return candidates_;
  }

  // --- swap commit kernel ---------------------------------------------
  /// Re-validation of a decided swap against the live ledger, invoked on
  /// the calling thread immediately before execution (earlier swaps of
  /// the same commit may have consumed the pairs it needs).
  using RecheckFn =
      std::function<bool(core::NodeId, const core::SwapCandidate&)>;
  /// One executed swap, reported to `observe` in canonical rotating order.
  struct CommittedSwap {
    core::NodeId node = 0;
    core::SwapCandidate candidate;
    core::MaxMinBalancer::Execution execution;
  };
  using ObserveFn = std::function<void(const CommittedSwap&)>;
  struct CommitStats {
    std::uint64_t swaps = 0;
    std::uint64_t pairs_consumed = 0;  // donor pairs destroyed
    std::uint64_t pairs_produced = 0;  // one per swap
  };
  /// Commit the decided candidates serially in canonical rotating order
  /// — nodes first, first + 1, ... modulo n (first < n) — each re-checked
  /// via `recheck` against the live ledger, executed, added to the stats
  /// and reported to `observe`. Fractional-D rounding draws come from
  /// streams keyed (seed, swap-tag, attempt|round, node), so the outcome
  /// is bit-identical for every threads setting.
  CommitStats commit_swaps(const core::MaxMinBalancer& balancer,
                           core::NodeId first, std::uint32_t round,
                           std::uint32_t attempt, const RecheckFn& recheck,
                           const ObserveFn& observe = {});

  // --- decay state + decohere kernel (decay model required) ------------
  [[nodiscard]] const DecayModel& decay() const;
  /// Current fidelity of a tracked pair under the decay model.
  [[nodiscard]] double fidelity_now(const TrackedPair& pair, double now) const;
  /// Store one pair between x and y (ledger count + metadata).
  void add_pair(core::NodeId x, core::NodeId y, double now, double fidelity);
  /// Remove and return the (x, y) pair chosen by the pairing policy:
  /// freshest = highest current fidelity, otherwise oldest creation time.
  /// The bucket must be non-empty (check the ledger count first).
  TrackedPair take_pair(core::NodeId x, core::NodeId y, double now,
                        bool freshest);
  /// Best current fidelity of the (x, y) bucket (0 when empty).
  [[nodiscard]] double best_fidelity(core::NodeId x, core::NodeId y,
                                     double now) const;
  /// Drop (x, y) pairs decayed below usable_fidelity at `now`; returns
  /// how many were dropped.
  std::uint64_t purge_pair_type(core::NodeId x, core::NodeId y, double now);
  /// Decohere kernel: purge every live bucket at `now`. The per-pair
  /// fidelity scan fans across dynamically scheduled node chunks — a
  /// bucket belongs to the chunk of its smaller endpoint, enumerated via
  /// the ledger partner rows, so only live pairs are ever visited
  /// (O(live pairs), not O(n^2)). Buckets own their metadata vectors, so
  /// compaction is chunk-local; the ledger updates apply on the caller by
  /// concatenating the per-chunk drop lists in chunk order, which is
  /// exactly ascending (x, y) — the same canonical order as a full
  /// triangular walk over the non-empty buckets. Returns the total pairs
  /// dropped.
  std::uint64_t decohere_all(double now);

  /// Deterministic logical bytes held by the simulation state (ledger,
  /// candidate table, generation flags, decay store). Element counts times
  /// fixed constants — bit-identical across compilers, so bench gates can
  /// compare memory-per-node at 1e-9 tolerance.
  [[nodiscard]] std::uint64_t memory_bytes() const;

 private:
  /// Chunk bodies for the parallel kernels (generate, decide, decohere),
  /// run through the engine's dynamic chunk scheduler. Their contexts
  /// live in members (not lambda captures) so the std::function handed to
  /// the pool stays within the small-object buffer — the hot path never
  /// allocates.
  void generate_chunk(std::size_t begin, std::size_t end);
  void decide_chunk(std::size_t begin, std::size_t end, unsigned worker);
  void decohere_chunk(std::size_t begin, std::size_t end);
  /// The one decayed-pair drop loop (purge_pair_type, decohere): erase
  /// the bucket's pairs below usable_fidelity at `now`, keeping the
  /// survivors in order. Touches the bucket only, never the ledger.
  std::uint32_t drop_decayed(std::vector<TrackedPair>& bucket, double now) const;

  const graph::Graph& graph_;
  std::uint64_t seed_;
  core::PairLedger ledger_;
  PhaseTimers timers_;

  std::unique_ptr<ParallelTickEngine> pool_;
  // Decide scratch is pure per-invocation workspace, so one per pool
  // worker suffices under the chunk scheduler (results never depend on
  // which worker ran a chunk).
  std::vector<core::MaxMinBalancer::Scratch> worker_scratch_;
  // Per-edge Bernoulli rounding flags for fractional generation rates,
  // filled chunk-parallel by bernoulli_batch and read by the merge loop
  // (integral rates never touch it).
  std::vector<std::uint8_t> generation_flags_;
  const FaultPlan* fault_plan_ = nullptr;
  std::vector<std::optional<core::SwapCandidate>> candidates_;  // per node
  // Per-kernel contexts (see the chunk bodies above).
  std::uint32_t gen_round_ = 0;
  double gen_frac_ = 0.0;
  const DecideFn* decide_fn_ = nullptr;
  double decohere_now_ = 0.0;

  // Decay state (only with a decay model): sparse metadata buckets keyed by
  // live pairs, mirroring the ledger counts (bucket size == count).
  std::optional<DecayModel> decay_;
  std::optional<PairStore> pair_store_;
  /// One (x, y, dropped) record per bucket the decohere scan purged from;
  /// per-chunk lists so the concurrent phase appends without contention
  /// and the serial merge replays canonical (x, y) order by walking the
  /// lists in chunk order. Capacities persist across rounds (steady state
  /// appends only).
  struct PurgeEntry {
    core::NodeId x = 0;
    core::NodeId y = 0;
    std::uint32_t dropped = 0;
  };
  std::vector<std::vector<PurgeEntry>> purge_entries_;  // per chunk
};

}  // namespace poq::sim
