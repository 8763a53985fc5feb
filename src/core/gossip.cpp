#include "core/gossip.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "net/message.hpp"
#include "sim/network_state.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace poq::core {

namespace {

/// Outbox ring depth: 1 + the longest delay ceil(latency * hops) of a
/// message that can still arrive within max_rounds (rounds start at 1, so
/// a longer one never does and is not queued), from `latency`, the
/// row-major n x n table of latency * hops.
std::size_t delivery_depth(std::span<const double> latency, std::uint32_t max_rounds) {
  double longest = 0.0;
  for (const double delay : latency) {
    if (delay < static_cast<double>(max_rounds)) longest = std::max(longest, std::ceil(delay));
  }
  return static_cast<std::size_t>(longest) + 1;
}

}  // namespace

/// The §6 protocol expressed as phase kernels over the shared
/// NetworkState. Per round: generation kernel (keyed per-edge streams)
/// -> send kernel (canonical node order; the optimistic peer draws from
/// a per-(round, node) keyed stream) -> message-merge kernel
/// (deliveries applied in canonical (send round, sender, target) order)
/// -> decide kernel (best preferable swap under stale views, fanned over
/// node chunks against the frozen ledger) -> serial commit (re-checked
/// against live own counts and the frozen view). Results are
/// bit-identical for every threads setting.
GossipResult run_gossip(const graph::Graph& generation_graph, const Workload& workload,
                        const GossipConfig& config) {
  require(config.fanout >= 1, "GossipConfig: fanout must be >= 1");
  require(std::isfinite(config.latency_per_hop) && config.latency_per_hop >= 0.0,
          "run_gossip: latency must be finite and non-negative");
  // Reports are snapshots of the ledger's dense count mirror, held in
  // the delivery ring: 4n^2 bytes of counts per round of its depth (its
  // bitsets add 8n ceil(n/64) bytes per round, 1/32 of that at the
  // limit), and the depth reaches n + the longest delay at fanout 1.
  static_assert(PairLedger::kFullReserveNodeLimit == 1024,
                "the message below names the limit and the ring's size there");
  require(generation_graph.node_count() <= PairLedger::kFullReserveNodeLimit,
          "run_gossip: at most 1024 nodes (the dense count mirror's limit); "
          "the delivery ring holds 4n^2*depth bytes, where the depth is the "
          "longest delay + ceil((n-1)/fanout) + 2 rounds (4.3 GB at 1024 nodes "
          "and fanout 1)");
  BalancingSimulation sim(generation_graph, workload, config.base);
  const auto node_count = static_cast<NodeId>(generation_graph.node_count());

  const std::size_t words = sim.ledger().live_words();
  const auto& distances = sim.distances();
  const auto max_rounds = static_cast<double>(config.base.max_rounds);
  // Per-pair latency * hops, row-major: the same product the send kernel
  // adds to the round.
  std::vector<double> latency(std::size_t{node_count} * node_count);
  for (NodeId x = 0; x < node_count; ++x) {
    for (NodeId y = 0; y < node_count; ++y) {
      latency[std::size_t{x} * node_count + y] =
          config.latency_per_hop * static_cast<double>(distances[x][y]);
    }
  }
  // The rotating window reaches every other node within any L
  // consecutive rounds (L rounds of `fanout` consecutive offsets cover
  // all n - 1), and no delay exceeds delays - 1. So the report an owner
  // holds from a reporter after round t was sent after t - L - delays,
  // and a snapshot ring of delays + L + 1 slots reopens a slot only once
  // no node holds a report from it.
  const std::size_t refresh_rounds =
      (std::size_t{node_count} - 1 + config.fanout - 1) / config.fanout;
  const std::size_t delays = delivery_depth(latency, config.base.max_rounds);
  const std::size_t depth = delays + refresh_rounds + 1;
  const std::size_t per_sender = config.fanout + (config.optimistic_peer ? 1 : 0);
  DeliveryRing ring(node_count, words, per_sender * node_count, delays, depth);
  KnowledgeBase knowledge(node_count, words, static_cast<std::uint32_t>(depth));
  // The window's offsets this round, and one keyed stream per sender for
  // its optimistic peer.
  std::vector<std::uint32_t> offsets(config.fanout);
  std::vector<util::Rng> peer_streams(config.optimistic_peer ? node_count : 0);

  GossipResult result;
  // Ages of the views behind committed swaps. The commit observer
  // captures only this struct, which keeps its std::function inline
  // (no heap allocation per round).
  struct ViewAgeTally {
    const KnowledgeBase& knowledge;
    std::uint32_t round = 0;
    double total = 0.0;
    std::uint64_t samples = 0;
  } view_ages{knowledge};

  while (!sim.finished()) {
    util::this_thread_check_cancelled();
    sim.begin_round();
    sim.fault_phase();
    const auto round = static_cast<std::uint32_t>(sim.round());
    const double now = static_cast<double>(round);
    view_ages.round = round;

    sim.generation_phase();

    {
      const sim::PhaseStopwatch stopwatch(sim.state().timers().exchange_ns);
      // 1. Send kernel: count rows to the rotating window (+ one
      // optimistic peer from a keyed stream), in canonical node order.
      // Every message is counted on the wire at its encoded size, which
      // depends on the row's live counts only, so it is sized from the
      // sender's mirror row (absent peers and the diagonal are 0). One
      // due after max_rounds would never be installed, so it is not
      // queued.
      ring.open(round, sim.ledger().dense_counts(), sim.ledger().live_bits());
      // Offsets 1 + (round * fanout + k) mod (n - 1), k < fanout.
      std::uint64_t offset = (static_cast<std::uint64_t>(round) * config.fanout) %
                             (node_count - 1);
      for (std::uint32_t& window : offsets) {
        window = static_cast<std::uint32_t>(offset) + 1;
        if (++offset == node_count - 1) offset = 0;
      }
      if (config.optimistic_peer) {
        util::Rng::keyed_batch(config.base.seed, sim::stream_tag::kGossip, round, 0,
                               peer_streams);
      }
      for (NodeId x = 0; x < node_count; ++x) {
        const std::size_t bytes = net::count_report_size(
            x, round, node_count, {sim.ledger().dense_row(x), node_count});
        const double* const latency_from_x = latency.data() + std::size_t{x} * node_count;
        const auto send = [&](NodeId target) {
          ++result.control_messages;
          result.control_bytes += bytes;
          const double due = now + latency_from_x[target];
          if (due <= max_rounds) {
            ring.post(x, target, static_cast<std::uint32_t>(std::ceil(due)) - round);
          }
        };
        for (const std::uint32_t window : offsets) {
          const NodeId target = x + window;  // x + at most n - 1
          send(target < node_count ? target : target - node_count);
        }
        if (config.optimistic_peer) {
          util::Rng& peer_rng = peer_streams[x];
          NodeId random_peer = x;
          while (random_peer == x) {
            random_peer = static_cast<NodeId>(peer_rng.uniform_index(node_count));
          }
          send(random_peer);
        }
      }

      // 2. Merge kernel: the messages due this round install in send
      // order — send round, then canonical sender, then target. A
      // report's latency to a fixed target never varies, so per (owner,
      // reporter) installs are already in send order; the canonical order
      // fixes the rest deterministically.
      ring.deliver(knowledge);
    }

    // 3. Decide + serial commit under stale beneficiary views. The
    // decide scan reads the frozen post-generation ledger; the commit
    // re-check reads live own counts but keeps the decision's view count
    // (views do not move during a sweep).
    sim.swap_phase(
        [&](NodeId x, MaxMinBalancer::Scratch& scratch) {
          return sim.balancer().best_swap_with_reports(sim.ledger(), x,
                                                       knowledge.reports(x), scratch);
        },
        [&sim](NodeId x, const SwapCandidate& candidate) {
          return sim.balancer().is_preferable_given_beneficiary(
              sim.ledger(), x, candidate.left, candidate.right,
              candidate.beneficiary_count);
        },
        [&view_ages](const sim::NetworkState::CommittedSwap& swap) {
          const KnowledgeBase& views = view_ages.knowledge;
          view_ages.total +=
              view_ages.round -
              std::max(views.report_round(swap.node, swap.candidate.left),
                       views.report_round(swap.node, swap.candidate.right));
          ++view_ages.samples;
        });

    sim.consumption_phase();
  }

  result.base = sim.result();
  result.mean_view_age =
      view_ages.samples > 0 ? view_ages.total / static_cast<double>(view_ages.samples)
                           : 0.0;
  return result;
}

}  // namespace poq::core
