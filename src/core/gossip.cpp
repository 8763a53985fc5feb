#include "core/gossip.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "net/message.hpp"
#include "sim/network_state.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"

namespace poq::core {

namespace {

/// Per-node stale views of everyone else's count rows, each stored with
/// the live bitset it was reported with (MaxMinBalancer::ReportView's
/// block layout).
class KnowledgeBase {
 public:
  KnowledgeBase(std::size_t node_count, std::size_t words)
      : node_count_(node_count),
        words_(words),
        block_(MaxMinBalancer::ReportView::block_size(node_count, words)),
        blocks_(node_count * node_count * block_, 0),
        age_(node_count * node_count, 0) {}

  /// Install reporter's dense row and live bitset as seen by `owner` at
  /// `round`.
  void install(NodeId owner, NodeId reporter, const std::uint32_t* row,
               const std::uint64_t* live, std::uint32_t round) {
    const std::size_t slot = static_cast<std::size_t>(owner) * node_count_ + reporter;
    std::uint32_t* block = blocks_.data() + slot * block_;
    std::copy(row, row + node_count_, block);
    MaxMinBalancer::ReportView::store_live(block, node_count_, live, words_);
    age_[slot] = round;
  }

  /// Everything `owner` has been told, as the balancer reads it.
  [[nodiscard]] MaxMinBalancer::ReportView reports(NodeId owner) const {
    const std::size_t first = static_cast<std::size_t>(owner) * node_count_;
    return {blocks_.data() + first * block_, age_.data() + first, node_count_, words_};
  }

  [[nodiscard]] std::uint32_t report_round(NodeId owner, NodeId reporter) const {
    return age_[static_cast<std::size_t>(owner) * node_count_ + reporter];
  }

 private:
  std::size_t node_count_;
  std::size_t words_;
  std::size_t block_;  // uint32 slots per (owner, reporter) report
  std::vector<std::uint32_t> blocks_;
  std::vector<std::uint32_t> age_;  // round of last report, per (owner, reporter)
};

/// Count reports in flight, as a ring of per-round slots `depth` rounds
/// deep. Each send round owns one slot: the n x n snapshot of the rows
/// sent that round (one copy of the ledger's dense count mirror and of
/// its live bitsets) plus that round's messages. Each message also
/// joins the delivery list of its due round, a chain through the slots
/// appended in send order, so the merge walks exactly the messages due
/// now in (send round, sender, target) order. Every queued delay is
/// below `depth`, so a slot is reused only after everything sent from it
/// has been installed. A slot's storage is sized on its first use and
/// reused after, so the ring stops allocating once it has wrapped.
class DeliveryRing {
 public:
  DeliveryRing(std::size_t node_count, std::size_t words,
               std::size_t messages_per_round, std::size_t depth)
      : node_count_(node_count),
        words_(words),
        per_round_(messages_per_round),
        slots_(depth) {}

  /// Open `round`'s send slot with `counts` (the row-major n x n dense
  /// count mirror) and `live` (the ledger's live bitsets) as the
  /// snapshot every report sent this round carries.
  void open(std::uint32_t round, std::span<const std::uint32_t> counts,
            std::span<const std::uint64_t> live) {
    sending_ = round % slots_.size();
    Slot& slot = slots_[sending_];
    if (slot.rows.empty()) {
      slot.rows.resize(node_count_ * node_count_);
      slot.live.resize(node_count_ * words_);
      slot.messages.reserve(per_round_);
    }
    std::copy(counts.begin(), counts.end(), slot.rows.begin());
    std::copy(live.begin(), live.end(), slot.live.begin());
    slot.round = round;
    slot.messages.clear();
  }

  /// Queue sender's row from the open slot for `target` at `due_round`
  /// (the open round + a delay below the ring depth).
  void post(NodeId sender, NodeId target, std::uint32_t due_round) {
    Slot& slot = slots_[sending_];
    const std::size_t id = sending_ * per_round_ + slot.messages.size();
    slot.messages.push_back(Message{sender, target, kNone});
    Slot& due = slots_[due_round % slots_.size()];
    if (due.tail == kNone) {
      due.head = id;
    } else {
      message(due.tail).next = id;
    }
    due.tail = id;
  }

  /// Hand every message due at `round` to
  /// install(target, sender, row, live, send_round), in send order, and
  /// empty the round's delivery list.
  template <typename Install>
  void deliver(std::uint32_t round, Install&& install) {
    Slot& due = slots_[round % slots_.size()];
    for (std::size_t id = due.head; id != kNone;) {
      const Slot& from = slots_[id / per_round_];
      const Message& m = from.messages[id % per_round_];
      install(m.target, m.sender, from.rows.data() + m.sender * node_count_,
              from.live.data() + m.sender * words_, from.round);
      id = m.next;
    }
    due.head = kNone;
    due.tail = kNone;
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  struct Message {
    NodeId sender = 0;
    NodeId target = 0;
    std::size_t next = kNone;  // next message due the same round
  };
  struct Slot {
    std::uint32_t round = 0;  // send round of rows/messages
    std::vector<std::uint32_t> rows;
    std::vector<std::uint64_t> live;
    std::vector<Message> messages;
    // Delivery list of the due round that maps to this slot.
    std::size_t head = kNone;
    std::size_t tail = kNone;
  };

  Message& message(std::size_t id) {
    return slots_[id / per_round_].messages[id % per_round_];
  }

  std::size_t node_count_;
  std::size_t words_;
  std::size_t per_round_;
  std::vector<Slot> slots_;
  std::size_t sending_ = 0;
};

/// Ring depth: 1 + the longest delay ceil(latency * hops) of a message
/// that can still arrive within max_rounds (rounds start at 1, so a
/// longer one never does and is not queued).
std::size_t delivery_depth(const std::vector<std::vector<std::uint32_t>>& distances,
                           double latency_per_hop, std::uint32_t max_rounds) {
  double longest = 0.0;
  for (const std::vector<std::uint32_t>& row : distances) {
    for (const std::uint32_t hops : row) {
      const double delay = latency_per_hop * static_cast<double>(hops);
      if (delay < static_cast<double>(max_rounds)) {
        longest = std::max(longest, std::ceil(delay));
      }
    }
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
/// node shards against the frozen ledger) -> serial commit (re-checked
/// against live own counts and the frozen view). Results are
/// bit-identical for every threads/shards setting.
GossipResult run_gossip(const graph::Graph& generation_graph, const Workload& workload,
                        const GossipConfig& config) {
  require(config.fanout >= 1, "GossipConfig: fanout must be >= 1");
  require(std::isfinite(config.latency_per_hop) && config.latency_per_hop >= 0.0,
          "run_gossip: latency must be finite and non-negative");
  // Reports are snapshots of the ledger's dense count mirror, and every
  // node keeps a view of every report: 4 n^3 bytes of counts (its
  // bitsets add 8 n^2 ceil(n/64) bytes, 1/32 of that at the limit).
  static_assert(PairLedger::kFullReserveNodeLimit == 1024,
                "the message below names the limit and its knowledge-base size");
  require(generation_graph.node_count() <= PairLedger::kFullReserveNodeLimit,
          "run_gossip: at most 1024 nodes (the dense count mirror's limit); "
          "the knowledge base holds 4n^3 bytes, 4.3 GB at 1024 nodes");
  BalancingSimulation sim(generation_graph, workload, config.base);
  const auto node_count = static_cast<NodeId>(generation_graph.node_count());

  const std::size_t words = sim.ledger().live_words();
  KnowledgeBase knowledge(node_count, words);
  const auto& distances = sim.distances();
  const std::size_t per_sender = config.fanout + (config.optimistic_peer ? 1 : 0);
  const auto max_rounds = static_cast<double>(config.base.max_rounds);
  DeliveryRing ring(node_count, words, per_sender * node_count,
                    delivery_depth(distances, config.latency_per_hop,
                                   config.base.max_rounds));

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
      for (NodeId x = 0; x < node_count; ++x) {
        const std::size_t bytes = net::count_report_size(
            x, round, node_count, {sim.ledger().dense_row(x), node_count});
        const auto send = [&](NodeId target) {
          ++result.control_messages;
          result.control_bytes += bytes;
          const double due =
              now + config.latency_per_hop * static_cast<double>(distances[x][target]);
          if (due <= max_rounds) {
            ring.post(x, target, static_cast<std::uint32_t>(std::ceil(due)));
          }
        };
        for (std::uint32_t k = 0; k < config.fanout; ++k) {
          const auto offset =
              1 + (static_cast<std::uint64_t>(round) * config.fanout + k) %
                      (node_count - 1);
          send(static_cast<NodeId>((x + offset) % node_count));
        }
        if (config.optimistic_peer) {
          util::Rng peer_rng = util::Rng::keyed(config.base.seed,
                                                sim::stream_tag::kGossip, round, x);
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
      ring.deliver(round, [&](NodeId owner, NodeId reporter, const std::uint32_t* row,
                              const std::uint64_t* live, std::uint32_t version) {
        knowledge.install(owner, reporter, row, live, version);
      });
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
