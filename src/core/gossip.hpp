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
// (MaxMinBalancer::best_swap_with_reports).
//
// The round runs as phase kernels on the tick engine: a deterministic
// per-round message merge in canonical sender order, swap decisions
// fanned over node chunks against the frozen ledger, and the serial
// commit in canonical rotating order — so results are bit-identical for
// every threads setting (see docs/ARCHITECTURE.md).
#pragma once

#include <cstdint>

#include "core/balancing_sim.hpp"

namespace poq::core {

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
