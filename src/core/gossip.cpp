#include "core/gossip.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "net/message.hpp"
#include "sim/network_state.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"

namespace poq::core {

namespace {

/// Per-node stale views of everyone else's count rows. A view is a
/// reference into the delivery ring's snapshot of the round the report
/// was sent in, so an install writes one reference and one round. A
/// reporter never heard from points at one shared all-zero row and
/// bitset.
class KnowledgeBase {
 public:
  /// Every report held is from the last `depth` rounds (the delivery
  /// ring's depth).
  KnowledgeBase(std::size_t node_count, std::size_t words, std::uint32_t depth)
      : node_count_(node_count),
        words_(words),
        depth_(depth),
        zero_row_(node_count, 0),
        zero_live_(words, 0),
        last_(node_count * node_count,
              MaxMinBalancer::Report{zero_row_.data(), zero_live_.data()}),
        rounds_(node_count * node_count, 0) {}
  KnowledgeBase(const KnowledgeBase&) = delete;
  KnowledgeBase& operator=(const KnowledgeBase&) = delete;

  /// Make `report`, sent at `round`, owner's view of reporter; returns
  /// the send round of the report it replaces (0: none).
  std::uint32_t install(NodeId owner, NodeId reporter, MaxMinBalancer::Report report,
                        std::uint32_t round) {
    const std::size_t slot = static_cast<std::size_t>(owner) * node_count_ + reporter;
    last_[slot] = report;
    return std::exchange(rounds_[slot], round);
  }

  /// Every report due by round `now` is installed.
  void advance(std::uint32_t now) { now_ = now; }

  /// Everything `owner` has been told, as the balancer reads it; every
  /// report held is from (now - depth, now].
  [[nodiscard]] MaxMinBalancer::ReportView reports(NodeId owner) const {
    const std::size_t first = static_cast<std::size_t>(owner) * node_count_;
    return {last_.data() + first, rounds_.data() + first, words_, now_, depth_};
  }

  [[nodiscard]] std::uint32_t report_round(NodeId owner, NodeId reporter) const {
    return rounds_[static_cast<std::size_t>(owner) * node_count_ + reporter];
  }

 private:
  std::size_t node_count_;
  std::size_t words_;
  std::uint32_t depth_;
  std::uint32_t now_ = 0;
  std::vector<std::uint32_t> zero_row_;
  std::vector<std::uint64_t> zero_live_;
  std::vector<MaxMinBalancer::Report> last_;  // per (owner, reporter)
  std::vector<std::uint32_t> rounds_;         // send round of last_, per (owner, reporter)
};

/// Count reports in flight and held. Each send round's snapshot of the
/// rows sent that round (one n x n copy of the ledger's dense count
/// mirror and of its live bitsets) lives in a ring `depth` rounds deep,
/// and the round's messages in an outbox ring `delays` rounds deep:
/// every queued delay is below `delays`, so a message is installed
/// before its outbox is reused. Each message also joins the delivery
/// list of its due round, a chain through the outboxes appended in send
/// order, so the merge walks exactly the messages due now in (send
/// round, sender, target) order. An installed report stays a reference
/// into its snapshot, and each snapshot counts the references to it;
/// reopening one that is still referenced is an InvariantError (the
/// depth bound is checked, not assumed). Storage is sized on first use
/// and reused after, so the ring stops allocating once it has wrapped.
class DeliveryRing {
 public:
  DeliveryRing(std::size_t node_count, std::size_t words,
               std::size_t messages_per_round, std::size_t delays, std::size_t depth)
      : node_count_(node_count),
        words_(words),
        per_round_(messages_per_round),
        snapshots_(depth),
        outboxes_(delays) {}

  /// Open `round`'s snapshot with `counts` (the row-major n x n dense
  /// count mirror) and `live` (the ledger's live bitsets), which every
  /// report sent this round carries, and its empty outbox.
  void open(std::uint32_t round, std::span<const std::uint32_t> counts,
            std::span<const std::uint64_t> live) {
    Snapshot& snapshot = snapshots_[round % snapshots_.size()];
    ensure(snapshot.references == 0,
           "gossip: a report snapshot was reused while a node still holds it");
    if (snapshot.rows.empty()) {
      snapshot.rows.resize(node_count_ * node_count_);
      snapshot.live.resize(node_count_ * words_);
    }
    std::copy(counts.begin(), counts.end(), snapshot.rows.begin());
    std::copy(live.begin(), live.end(), snapshot.live.begin());
    snapshot.round = round;
    sending_ = round % outboxes_.size();
    Outbox& outbox = outboxes_[sending_];
    outbox.round = round;
    outbox.messages.clear();
    outbox.messages.reserve(per_round_);
  }

  /// Queue sender's row from the open snapshot for `target` at
  /// `due_round` (the open round + a delay below `delays`).
  void post(NodeId sender, NodeId target, std::uint32_t due_round) {
    Outbox& outbox = outboxes_[sending_];
    const std::size_t id = sending_ * per_round_ + outbox.messages.size();
    outbox.messages.push_back(Message{sender, target, kNone});
    Outbox& due = outboxes_[due_round % outboxes_.size()];
    if (due.tail == kNone) {
      due.head = id;
    } else {
      message(due.tail).next = id;
    }
    due.tail = id;
  }

  /// Install every message due at `round` into `knowledge`, in send
  /// order, moving each report's reference from the snapshot of the
  /// report it replaces to its own; then empty the round's delivery list
  /// and advance `knowledge` to `round`.
  void deliver(std::uint32_t round, KnowledgeBase& knowledge) {
    Outbox& due = outboxes_[round % outboxes_.size()];
    for (std::size_t id = due.head; id != kNone;) {
      const Outbox& from = outboxes_[id / per_round_];
      const Message& m = from.messages[id % per_round_];
      Snapshot& snapshot = snapshots_[from.round % snapshots_.size()];
      const std::uint32_t replaced = knowledge.install(
          m.target, m.sender,
          {snapshot.rows.data() + m.sender * node_count_,
           snapshot.live.data() + m.sender * words_},
          from.round);
      ++snapshot.references;
      if (replaced != 0) --snapshots_[replaced % snapshots_.size()].references;
      id = m.next;
    }
    due.head = kNone;
    due.tail = kNone;
    knowledge.advance(round);
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  struct Message {
    NodeId sender = 0;
    NodeId target = 0;
    std::size_t next = kNone;  // next message due the same round
  };
  struct Snapshot {
    std::uint32_t round = 0;       // send round of rows/live
    std::uint32_t references = 0;  // installed reports that point here
    std::vector<std::uint32_t> rows;
    std::vector<std::uint64_t> live;
  };
  struct Outbox {
    std::uint32_t round = 0;  // send round of messages
    std::vector<Message> messages;
    // Delivery list of the due round that maps to this outbox.
    std::size_t head = kNone;
    std::size_t tail = kNone;
  };

  Message& message(std::size_t id) {
    return outboxes_[id / per_round_].messages[id % per_round_];
  }

  std::size_t node_count_;
  std::size_t words_;
  std::size_t per_round_;
  std::vector<Snapshot> snapshots_;
  std::vector<Outbox> outboxes_;
  std::size_t sending_ = 0;  // outbox of the open round
};

/// Outbox ring depth: 1 + the longest delay ceil(latency * hops) of a message
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
  const std::size_t per_sender = config.fanout + (config.optimistic_peer ? 1 : 0);
  const auto max_rounds = static_cast<double>(config.base.max_rounds);
  // The rotating window reaches every other node within any L
  // consecutive rounds (L rounds of `fanout` consecutive offsets cover
  // all n - 1), and no delay exceeds delivery_depth - 1. So the report
  // an owner holds from a reporter after round t was sent after
  // t - L - delivery_depth, and a snapshot ring of delivery_depth + L + 1
  // slots reopens a slot only once no node holds a report from it.
  const std::size_t refresh_rounds =
      (std::size_t{node_count} - 1 + config.fanout - 1) / config.fanout;
  const std::size_t delays =
      delivery_depth(distances, config.latency_per_hop, config.base.max_rounds);
  const std::size_t depth = delays + refresh_rounds + 1;
  DeliveryRing ring(node_count, words, per_sender * node_count, delays, depth);
  KnowledgeBase knowledge(node_count, words, static_cast<std::uint32_t>(depth));

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
      ring.deliver(round, knowledge);
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
