// Partial-knowledge balancing via count gossip (§6).
//
// §4 assumes "immediate global knowledge of all buffers"; §6 suggests "a
// BitTorrent-like approach ... where each node knows only the status of a
// rotating but small number of neighbors, would intuitively scale well."
// GossipSimulation implements that: each round every node sends its true
// count row to a rotating window of peers (plus one random optimistic
// peer), messages arrive after a hop-distance latency, and swap decisions
// read *stale views* for beneficiary counts (a node's own counts are
// always ground truth — it owns those qubits). Classical overhead is
// accounted in encoded bytes per message.
//
// A round's reports are one copy of the ledger's dense count mirror and
// of its live-partner bitsets (each message carries its sender's row of
// that snapshot), and each report's wire size comes from
// net::count_report_size in closed form from the sender's mirror row.
// Gossip therefore runs only where the mirror exists, at most
// PairLedger::kFullReserveNodeLimit nodes. A node's view of a report is
// a reference into the delivery ring's snapshot of its send round, so
// the ring keeps each round's snapshot until every node holding it has
// heard from that reporter again: its depth is the longest delay +
// ceil((n-1)/fanout) + 2 rounds, and it holds 4n^2*depth bytes of counts
// (4.3 GB at the limit with fanout 1) plus 8n ceil(n/64) bytes of
// bitsets per round. A beneficiary view is the fresher of the two
// endpoints' reports, picked by a select on their report rounds; the
// decide finds zero views from the reported bitsets first
// (MaxMinBalancer::best_swap_with_reports). KnowledgeBase (the views)
// and DeliveryRing (the reports in flight and their snapshots) are
// run_gossip's exchange, declared here so that tests can drive them.
//
// The round runs as phase kernels on the tick engine: a deterministic
// per-round message merge in canonical sender order, swap decisions
// fanned over node chunks against the frozen ledger, and the serial
// commit in canonical rotating order — so results are bit-identical for
// every threads setting (see docs/ARCHITECTURE.md).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/balancing_sim.hpp"
#include "core/maxmin_balancer.hpp"
#include "util/error.hpp"

namespace poq::core {

/// Gossip's per-node stale views of everyone else's count rows. A view
/// is a reference into the delivery ring's snapshot of the round the
/// report was sent in, so an install writes one reference and one round.
/// A reporter never heard from points at one shared all-zero row and
/// bitset.
class KnowledgeBase {
 public:
  /// Every report is installed within `depth` rounds of being sent (the
  /// delivery ring's depth).
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

  /// Make `report`, sent at round `sent`, owner's view of reporter at
  /// round `now`; returns the send round of the report it replaces (0:
  /// none). A send round outside (now - depth, now], or 0 (which reads
  /// as never heard from), is an InvariantError.
  std::uint32_t install(NodeId owner, NodeId reporter, MaxMinBalancer::Report report,
                        std::uint32_t sent, std::uint32_t now) {
    ensure(sent != 0 && sent <= now && now - sent < depth_,
           "gossip: a report installed outside (now - depth, now]");
    const std::size_t slot = static_cast<std::size_t>(owner) * node_count_ + reporter;
    last_[slot] = report;
    return std::exchange(rounds_[slot], sent);
  }

  /// Everything `owner` has been told, as the balancer reads it.
  [[nodiscard]] MaxMinBalancer::ReportView reports(NodeId owner) const {
    const std::size_t first = static_cast<std::size_t>(owner) * node_count_;
    return {last_.data() + first, rounds_.data() + first, words_};
  }

  [[nodiscard]] std::uint32_t report_round(NodeId owner, NodeId reporter) const {
    return rounds_[static_cast<std::size_t>(owner) * node_count_ + reporter];
  }

 private:
  std::size_t node_count_;
  std::size_t words_;
  std::uint32_t depth_;
  std::vector<std::uint32_t> zero_row_;
  std::vector<std::uint64_t> zero_live_;
  std::vector<MaxMinBalancer::Report> last_;  // per (owner, reporter)
  std::vector<std::uint32_t> rounds_;         // send round of last_, per (owner, reporter)
};

/// Count reports in flight and held. Each send round's snapshot of the
/// rows sent that round (one n x n copy of the ledger's dense count
/// mirror and of its live bitsets) lives in a ring `depth` rounds deep,
/// and the round's messages in an outbox ring `delays` rounds deep,
/// grouped by delay in send order (a stable counting sort when the round
/// is sealed): every queued delay is below `delays`, so a message is
/// installed before its outbox is reused. The messages due at round t
/// are the delay-d group of round t - d's outbox, so the merge walks
/// those groups for d = delays - 1 down to 0 and installs exactly the
/// messages due now in (send round, sender, target) order, with no
/// chain and no division per message. An installed report stays a
/// reference into its snapshot, and each snapshot counts the references
/// to it; reopening one that is still referenced is an InvariantError
/// (the depth bound is checked, not assumed). Outboxes are sized up
/// front and snapshots on first use, so the ring stops allocating once
/// it has wrapped.
class DeliveryRing {
 public:
  /// `depth` exceeds `delays`, so a snapshot outlives every message sent
  /// from it until that message is installed.
  DeliveryRing(std::size_t node_count, std::size_t words,
               std::size_t messages_per_round, std::size_t delays, std::size_t depth)
      : node_count_(node_count), words_(words), snapshots_(depth), outboxes_(delays) {
    require(delays >= 1 && depth > delays, "DeliveryRing: needs depth > delays >= 1");
    posted_.reserve(messages_per_round);
    for (Outbox& outbox : outboxes_) {
      outbox.messages.reserve(messages_per_round);
      outbox.starts.assign(delays + 1, 0);
    }
  }

  /// Open `round`'s snapshot with `counts` (the row-major n x n dense
  /// count mirror) and `live` (the ledger's live bitsets), which every
  /// report sent this round carries.
  void open(std::uint32_t round, std::span<const std::uint32_t> counts,
            std::span<const std::uint64_t> live) {
    open_ = round % snapshots_.size();
    Snapshot& snapshot = snapshots_[open_];
    ensure(snapshot.references == 0,
           "gossip: a report snapshot was reused while a node still holds it");
    if (snapshot.rows.empty()) {
      snapshot.rows.resize(node_count_ * node_count_);
      snapshot.live.resize(node_count_ * words_);
    }
    std::copy(counts.begin(), counts.end(), snapshot.rows.begin());
    std::copy(live.begin(), live.end(), snapshot.live.begin());
    round_ = round;
    sending_ = round % outboxes_.size();
    posted_.clear();
  }

  /// Queue sender's row from the open snapshot for `target`, due `delay`
  /// rounds after the open round (delay < delays).
  void post(NodeId sender, NodeId target, std::uint32_t delay) {
    ensure(delay < outboxes_.size(), "gossip: a message delay beyond the outbox ring");
    posted_.push_back(Posted{{sender, target}, delay});
  }

  /// Seal the open round's outbox, then install every message due at the
  /// open round into `knowledge`, in send order, moving each report's
  /// reference from the snapshot of the report it replaces to its own.
  void deliver(KnowledgeBase& knowledge) {
    seal();
    const std::size_t delays = outboxes_.size();
    for (std::size_t d = delays; d-- > 0;) {
      // Round - d's outbox (empty before the first round).
      const Outbox& from = outboxes_[sending_ >= d ? sending_ - d : sending_ + delays - d];
      Snapshot& snapshot = snapshots_[from.snapshot];
      for (std::uint32_t i = from.starts[d]; i < from.starts[d + 1]; ++i) {
        const Message& m = from.messages[i];
        const std::uint32_t replaced = knowledge.install(
            m.target, m.sender,
            {snapshot.rows.data() + m.sender * node_count_,
             snapshot.live.data() + m.sender * words_},
            from.round, round_);
        ++snapshot.references;
        if (replaced != 0) --snapshots_[slot_of(replaced)].references;
      }
    }
  }

 private:
  struct Message {
    NodeId sender;
    NodeId target;
  };
  struct Posted {
    Message message;
    std::uint32_t delay;
  };
  struct Snapshot {
    std::uint32_t references = 0;  // installed reports that point here
    std::vector<std::uint32_t> rows;
    std::vector<std::uint64_t> live;
  };
  struct Outbox {
    std::uint32_t round = 0;     // send round of messages
    std::size_t snapshot = 0;    // its snapshot's slot
    std::vector<Message> messages;
    // The delay-d messages are messages[starts[d], starts[d + 1]).
    std::vector<std::uint32_t> starts;
  };

  /// Move the open round's messages into its outbox grouped by delay,
  /// each group in send order: count the delays, prefix-sum them into
  /// group ends, then place the messages last to first at each group's
  /// end, which leaves starts[d] at the group's start.
  void seal() {
    Outbox& outbox = outboxes_[sending_];
    outbox.round = round_;
    outbox.snapshot = open_;
    std::vector<std::uint32_t>& starts = outbox.starts;
    std::fill(starts.begin(), starts.end(), 0u);
    for (const Posted& posted : posted_) ++starts[posted.delay];
    for (std::size_t d = 1; d < starts.size(); ++d) starts[d] += starts[d - 1];
    outbox.messages.resize(posted_.size());
    for (auto posted = posted_.rbegin(); posted != posted_.rend(); ++posted) {
      outbox.messages[--starts[posted->delay]] = posted->message;
    }
  }

  /// The snapshot slot of a report still held at the open round. Its
  /// snapshot is referenced, so it has not been reopened: the report is
  /// less than depth rounds old.
  [[nodiscard]] std::size_t slot_of(std::uint32_t round) const {
    const std::size_t age = round_ - round;
    return open_ >= age ? open_ - age : open_ + snapshots_.size() - age;
  }

  std::size_t node_count_;
  std::size_t words_;
  std::vector<Snapshot> snapshots_;
  std::vector<Outbox> outboxes_;
  std::vector<Posted> posted_;  // the open round's messages, in send order
  std::uint32_t round_ = 0;     // the open round
  std::size_t open_ = 0;        // its snapshot slot
  std::size_t sending_ = 0;     // its outbox
};

struct GossipConfig {
  BalancingConfig base;
  /// Rotating peers contacted per round (the unchoke window size).
  std::uint32_t fanout = 2;
  /// Also contact one uniformly random peer per round ("optimistic
  /// unchoke").
  bool optimistic_peer = true;
  /// Classical latency per generation-graph hop, in rounds.
  double latency_per_hop = 1.0;
};

struct GossipResult {
  BalancingResult base;
  std::uint64_t control_messages = 0;
  std::uint64_t control_bytes = 0;
  /// Mean age (rounds) of the beneficiary views actually used at swap
  /// decisions; 0 would be the paper's global-knowledge assumption.
  double mean_view_age = 0.0;
};

[[nodiscard]] GossipResult run_gossip(const graph::Graph& generation_graph,
                                      const Workload& workload,
                                      const GossipConfig& config);

}  // namespace poq::core
