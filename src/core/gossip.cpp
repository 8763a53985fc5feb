#include "core/gossip.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "net/message.hpp"
#include "sim/network_state.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"

namespace poq::core {

namespace {

/// Per-node stale views of everyone else's count rows.
class KnowledgeBase {
 public:
  KnowledgeBase(std::size_t node_count)
      : node_count_(node_count),
        counts_(node_count * node_count * node_count, 0),
        age_(node_count * node_count, 0) {}

  /// Install reporter's row as seen by `owner` at `round`.
  void install(NodeId owner, NodeId reporter, const std::vector<std::uint32_t>& row,
               std::uint32_t round) {
    for (NodeId peer = 0; peer < node_count_; ++peer) {
      counts_[flat(owner, reporter, peer)] = row[peer];
    }
    age_[static_cast<std::size_t>(owner) * node_count_ + reporter] = round;
  }

  [[nodiscard]] std::uint32_t view(NodeId owner, NodeId a, NodeId b) const {
    // Freshest of the two first-hand reports about the (a, b) pair.
    const std::uint32_t age_a = report_round(owner, a);
    const std::uint32_t age_b = report_round(owner, b);
    return age_a >= age_b ? counts_[flat(owner, a, b)] : counts_[flat(owner, b, a)];
  }

  [[nodiscard]] std::uint32_t report_round(NodeId owner, NodeId reporter) const {
    return age_[static_cast<std::size_t>(owner) * node_count_ + reporter];
  }

 private:
  [[nodiscard]] std::size_t flat(NodeId owner, NodeId reporter, NodeId peer) const {
    return (static_cast<std::size_t>(owner) * node_count_ + reporter) * node_count_ +
           peer;
  }

  std::size_t node_count_;
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint32_t> age_;  // round of last report, per (owner, reporter)
};

/// Rotating-window gossip targets of node x at `round` (+ one optimistic
/// peer drawn from `rng`, the per-(round, node) keyed stream).
std::vector<NodeId> gossip_targets(NodeId x, std::uint32_t round, NodeId node_count,
                                   const GossipConfig& config, util::Rng& rng) {
  std::vector<NodeId> targets;
  for (std::uint32_t k = 0; k < config.fanout; ++k) {
    const auto offset = 1 + (static_cast<std::uint64_t>(round) * config.fanout + k) %
                                (node_count - 1);
    targets.push_back(static_cast<NodeId>((x + offset) % node_count));
  }
  if (config.optimistic_peer) {
    NodeId random_peer = x;
    while (random_peer == x) {
      random_peer = static_cast<NodeId>(rng.uniform_index(node_count));
    }
    targets.push_back(random_peer);
  }
  return targets;
}

/// Node x's true count row, dense over all nodes, filled from x's sparse
/// ledger row.
std::vector<std::uint32_t> dense_row_of(const PairLedger& ledger, NodeId x,
                                        NodeId node_count) {
  std::vector<std::uint32_t> row(node_count, 0);
  const auto partners = ledger.partners(x);
  const auto counts = ledger.pair_counts(x);
  for (std::size_t k = 0; k < partners.size(); ++k) row[partners[k]] = counts[k];
  return row;
}

/// Refill `update` (reused across senders) with x's dense row as the wire
/// message it sends: one entry per other node.
void fill_count_update(net::CountUpdate& update, NodeId x, std::uint32_t round,
                       const std::vector<std::uint32_t>& row) {
  update.reporter = x;
  update.version = round;
  update.entries.clear();
  for (NodeId peer = 0; peer < row.size(); ++peer) {
    if (peer != x) update.entries.push_back(net::CountUpdate::Entry{peer, row[peer]});
  }
}

}  // namespace

/// The §6 protocol expressed as phase kernels over the shared
/// NetworkState. Per round: generation kernel (keyed per-edge streams)
/// -> send kernel (canonical node order; the optimistic peer draws from
/// a per-(round, node) keyed stream) -> message-merge kernel
/// (deliveries applied in canonical (send round, sender, target) order)
/// -> decide kernel (best preferable swap under stale views, fanned over
/// node shards against the frozen ledger) -> serial commit (re-checked
/// against live own counts and the frozen view). Results are
/// bit-identical for every threads/shards setting.
GossipResult run_gossip(const graph::Graph& generation_graph, const Workload& workload,
                        const GossipConfig& config) {
  require(config.fanout >= 1, "GossipConfig: fanout must be >= 1");
  BalancingSimulation sim(generation_graph, workload, config.base);
  sim::NetworkState& state = sim.state();
  const auto node_count = static_cast<NodeId>(generation_graph.node_count());

  KnowledgeBase knowledge(node_count);
  const auto& distances = sim.distances();

  /// One count row in flight: due round, canonical (sender, target) key.
  /// The row is immutable once sent, so the (fanout+1) copies of a
  /// round's report share one allocation.
  struct PendingUpdate {
    double due = 0.0;
    NodeId sender = 0;
    NodeId target = 0;
    std::uint32_t version = 0;
    std::shared_ptr<const std::vector<std::uint32_t>> row;
  };
  std::vector<PendingUpdate> pending;

  GossipResult result;
  net::CountUpdate update;  // send-kernel scratch, sized only
  update.entries.reserve(node_count - 1);
  double view_age_total = 0.0;
  std::uint64_t view_age_samples = 0;

  while (!sim.finished()) {
    util::this_thread_check_cancelled();
    sim.begin_round();
    sim.fault_phase();
    const auto round = static_cast<std::uint32_t>(sim.round());
    const double now = static_cast<double>(round);

    sim.generation_phase();

    // 1. Send kernel: count rows to the rotating window (+ one optimistic
    // peer from a keyed stream), in canonical node order.
    for (NodeId x = 0; x < node_count; ++x) {
      util::Rng peer_rng = util::Rng::keyed(config.base.seed,
                                            sim::stream_tag::kGossip, round, x);
      const std::vector<NodeId> targets =
          gossip_targets(x, round, node_count, config, peer_rng);
      const auto row = std::make_shared<const std::vector<std::uint32_t>>(
          dense_row_of(sim.ledger(), x, node_count));
      fill_count_update(update, x, round, *row);
      const std::size_t bytes = net::encoded_size(update);
      for (NodeId target : targets) {
        ++result.control_messages;
        result.control_bytes += bytes;
        pending.push_back(PendingUpdate{
            now + config.latency_per_hop * static_cast<double>(distances[x][target]),
            x, target, round, row});
      }
    }

    // 2. Merge kernel: everything due by this round installs in insertion
    // order — send round, then canonical sender, then target. A report's
    // latency to a fixed target never varies, so per (owner, reporter)
    // installs are already in send order; the canonical order fixes the
    // rest deterministically.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      PendingUpdate& message = pending[i];
      if (message.due <= now) {
        knowledge.install(message.target, message.sender, *message.row,
                          message.version);
        // An install changes what the owner reads at decide time (its
        // beneficiary views, including the freshness tie-break), so the
        // incremental decide must re-run it even if no ledger count it
        // reads moved.
        sim.ledger().mark_dirty(message.target);
        continue;
      }
      if (kept != i) pending[kept] = std::move(message);
      ++kept;
    }
    pending.resize(kept);

    // 3. Decide + serial commit under stale beneficiary views. The
    // decide scan reads the frozen post-generation ledger; the commit
    // re-check reads live own counts but keeps the decision's view count
    // (views do not move during a sweep).
    const auto first = static_cast<NodeId>(round % node_count);
    for (std::uint32_t attempt = 0; attempt < config.base.swaps_per_node_per_round;
         ++attempt) {
      state.decide_swaps([&](NodeId x, MaxMinBalancer::Scratch& scratch) {
        return sim.balancer().best_swap_with_view(
            sim.ledger(), x,
            [&](NodeId a, NodeId b) { return knowledge.view(x, a, b); }, scratch);
      });
      const sim::NetworkState::CommitStats stats = state.commit_swaps(
          sim.balancer(), first, round, attempt,
          [&](NodeId x, const SwapCandidate& candidate) {
            return sim.balancer().is_preferable_given_beneficiary(
                sim.ledger(), x, candidate.left, candidate.right,
                candidate.beneficiary_count);
          },
          [&](const sim::NetworkState::CommittedSwap& swap) {
            view_age_total +=
                round - std::max(knowledge.report_round(swap.node, swap.candidate.left),
                                 knowledge.report_round(swap.node, swap.candidate.right));
            ++view_age_samples;
          });
      sim.record_extra_swaps(stats.swaps);
      if (stats.swaps == 0) break;
    }

    sim.consumption_phase();
  }

  result.base = sim.result();
  result.mean_view_age =
      view_age_samples > 0 ? view_age_total / static_cast<double>(view_age_samples)
                           : 0.0;
  return result;
}

}  // namespace poq::core
