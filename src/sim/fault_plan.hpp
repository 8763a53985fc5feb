// Deterministic fault injection for the round/epoch-based simulators.
//
// A FaultPlan evolves a quantum-plane availability mask — per-node up/down,
// per-generation-edge up/down, and a per-round generation-rate factor —
// from two deterministic sources:
//
//   * a scripted event list (explicit round-stamped node/link/rate events,
//     the `faults` array of a --spec file), and
//   * stochastic crash/recover processes driven by counter-based streams
//     keyed (seed, fault-tag, round, entity) — one geometric-hazard draw
//     per entity per round, with failure probability 1/mtbf while up and
//     recovery probability 1/mttr while down.
//
// advance(round) is a serial phase: every draw comes from its own keyed
// stream and no kernel consumes them, so the fault trajectory is
// bit-identical for every threads setting and never perturbs the
// generation/swap/decide streams of the fault-free run.
//
// Modeled semantics (the drivers enforce them):
//   * node crash  — the node's quantum memory is lost: every stored pair
//     it shares is purged through the ledger, and generation on its
//     incident edges halts until recovery;
//   * link down   — generation on that edge halts; already-stored pairs
//     survive (they live in node memories, not on the fiber);
//   * rate degradation — the per-round generation rate is scaled by
//     scripted_factor * (1 - degradation * U_round), U_round uniform from
//     the per-round keyed stream.
// The classical control plane stays reliable throughout: gossip,
// belief reports and token handoffs keep flowing while the quantum plane
// churns — path-obliviousness is a quantum-plane property.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "graph/graph.hpp"
#include "util/stats.hpp"

namespace poq::sim {

enum class FaultEventKind {
  kNodeDown,
  kNodeUp,
  kLinkDown,
  kLinkUp,
  kRateFactor,
};

/// One scripted fault event, applied when advance() reaches its round.
struct FaultEvent {
  std::uint64_t round = 0;
  FaultEventKind kind = FaultEventKind::kNodeDown;
  /// Node events: the node. Link events: the edge endpoints (either
  /// order). Rate events ignore all three.
  core::NodeId node = 0;
  core::NodeId a = 0;
  core::NodeId b = 0;
  /// kRateFactor: persistent multiplicative generation factor from this
  /// round on (1 restores nominal).
  double factor = 1.0;
};

/// Fault process parameters. All-defaults means "no faults": enabled()
/// is false and every driver takes its historical fault-free path,
/// bit for bit.
struct FaultConfig {
  /// Mean rounds between failures per node (0 = no stochastic node
  /// faults). Per-round crash hazard is 1/mtbf.
  double node_mtbf = 0.0;
  /// Mean rounds to recover a crashed node (recovery hazard 1/mttr).
  double node_mttr = 10.0;
  /// Mean rounds between failures per generation edge (0 = none).
  double link_mtbf = 0.0;
  double link_mttr = 10.0;
  /// Per-round generation-rate degradation depth in [0, 1): each round
  /// scales the rate by 1 - degradation * U, U ~ uniform[0,1) keyed per
  /// round (0 = no degradation).
  double rate_degradation = 0.0;
  /// Scripted events (applied at their round, in list order, before the
  /// stochastic transitions of the same round).
  std::vector<FaultEvent> script;

  [[nodiscard]] bool enabled() const {
    return node_mtbf > 0.0 || link_mtbf > 0.0 || rate_degradation > 0.0 ||
           !script.empty();
  }

  /// Throw PreconditionError naming the knob (fault-node-mtbf, ...) of
  /// the first bad value: every mtbf finite and >= 0, every mttr finite
  /// and >= 1 round, the rate degradation in [0, 1). Independent of
  /// enabled(), which a negative or NaN value would turn false.
  void validate() const;
};

/// The run's one resilience record: the plan's own accounting over the
/// advanced rounds plus the deliveries and purges the driver reports.
struct FaultStats {
  std::uint64_t rounds = 0;
  /// Sum over rounds of (up nodes + up links) / (nodes + links).
  double availability_sum = 0.0;
  std::uint64_t degraded_rounds = 0;
  std::uint64_t node_crashes = 0;
  std::uint64_t link_downs = 0;
  /// Deliveries made during degraded rounds (the paper's
  /// delivered-under-fault ordering reads this).
  std::uint64_t delivered_under_fault = 0;
  /// Stored pairs destroyed by node crashes.
  std::uint64_t pairs_purged_by_faults = 0;
  /// Episode time from the end of each degraded episode to the next
  /// delivery: how fast delivery recovers once the churn pauses.
  util::RunningStats time_to_recover;

  /// Mean per-round fraction of up entities (1 when never advanced).
  [[nodiscard]] double availability() const {
    return rounds == 0 ? 1.0
                       : availability_sum / static_cast<double>(rounds);
  }
};

/// The evolving availability mask. Construction validates the script
/// (known nodes, existing generation edges, sane factors) and resolves
/// link events to edge indices; advance(round) is then allocation-free.
class FaultPlan {
 public:
  FaultPlan(const graph::Graph& graph, const FaultConfig& config,
            std::uint64_t seed);
  /// The plan keeps a reference to the graph, so a temporary is refused.
  FaultPlan(graph::Graph&&, const FaultConfig&, std::uint64_t) = delete;

  /// Advance the mask to `round` (serial phase; rounds must be passed in
  /// strictly increasing order). Applies scripted events stamped with
  /// this round, then the stochastic transitions, then refreshes the
  /// derived edge availability and the round's rate factor. A clean round
  /// after a degraded one ends the episode at `now`, the driver's episode
  /// time. Returns the nodes that crashed this round (ascending) — the
  /// caller purges their stored pairs and reports them to record_purged.
  const std::vector<core::NodeId>& advance(std::uint64_t round, double now);
  const std::vector<core::NodeId>& advance(std::uint64_t round) {
    return advance(round, static_cast<double>(round));
  }

  /// A delivery at episode time `now`: counts toward delivered_under_fault
  /// while the round is degraded, and the first one after an episode ends
  /// samples time_to_recover.
  void record_delivery(double now);
  void record_purged(std::uint64_t count) {
    stats_.pairs_purged_by_faults += count;
  }

  [[nodiscard]] bool node_up(core::NodeId x) const {
    return node_up_[x] != 0;
  }
  /// Edge availability: the link is up AND both endpoints are up.
  [[nodiscard]] bool edge_up(std::size_t edge) const {
    return edge_available_[edge] != 0;
  }
  /// Whether any generation edge is currently masked out.
  [[nodiscard]] bool any_edge_down() const { return edges_down_ != 0; }
  /// This round's multiplicative generation-rate factor.
  [[nodiscard]] double rate_factor() const { return rate_factor_; }
  /// Whether the current round is degraded (any entity down or the rate
  /// factor below 1).
  [[nodiscard]] bool degraded() const {
    return nodes_down_ != 0 || links_down_ != 0 || rate_factor_ < 1.0;
  }
  [[nodiscard]] const FaultStats& stats() const { return stats_; }

 private:
  void apply_event(const FaultEvent& event, std::size_t edge_index);
  void set_node(core::NodeId x, bool up);
  void set_link(std::size_t edge, bool up);
  void refresh_edges();

  const graph::Graph& graph_;
  FaultConfig config_;
  std::uint64_t seed_ = 0;
  /// Script sorted stably by round (ties keep list order), with each link
  /// event's resolved edge index alongside.
  std::vector<FaultEvent> script_;
  std::vector<std::size_t> script_edges_;
  std::size_t script_cursor_ = 0;
  std::vector<std::uint8_t> node_up_;
  std::vector<std::uint8_t> link_up_;        // the link itself
  std::vector<std::uint8_t> edge_available_; // link up && endpoints up
  std::size_t nodes_down_ = 0;
  std::size_t links_down_ = 0;
  std::size_t edges_down_ = 0;
  double scripted_rate_factor_ = 1.0;
  double rate_factor_ = 1.0;
  FaultStats stats_;
  // Degraded-episode state: set while rounds stay degraded; the first
  // clean round stamps episode_end_ and arms the recovery clock.
  bool in_episode_ = false;
  bool awaiting_recovery_ = false;
  double episode_end_ = 0.0;
  std::vector<core::NodeId> crashed_;
  /// Batched per-entity hazard flags (fail/recover thresholds over the
  /// same keyed stream element), reused every round.
  std::vector<std::uint8_t> fail_flags_;
  std::vector<std::uint8_t> recover_flags_;
};

}  // namespace poq::sim
