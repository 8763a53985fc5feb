#include "core/gossip.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/ledger.hpp"
#include "core/maxmin_balancer.hpp"
#include "core/workload.hpp"
#include "graph/shortest_path.hpp"
#include "graph/topology.hpp"
#include "sim/fault_plan.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace poq::core {
namespace {

Workload workload_for(std::size_t nodes, std::size_t requests, std::uint64_t seed) {
  util::Rng rng(seed);
  return make_uniform_workload(nodes, std::min<std::size_t>(8, nodes), requests, rng);
}

TEST(Gossip, CompletesWithPartialKnowledge) {
  const graph::Graph graph = graph::make_cycle(10);
  const Workload workload = workload_for(10, 25, 1);
  GossipConfig config;
  config.base.seed = 3;
  const GossipResult result = run_gossip(graph, workload, config);
  EXPECT_TRUE(result.base.completed);
  EXPECT_EQ(result.base.requests_satisfied, 25u);
}

TEST(Gossip, AccountsControlTraffic) {
  const graph::Graph graph = graph::make_cycle(8);
  const Workload workload = workload_for(8, 15, 2);
  GossipConfig config;
  config.base.seed = 5;
  config.fanout = 2;
  const GossipResult result = run_gossip(graph, workload, config);
  ASSERT_TRUE(result.base.completed);
  EXPECT_GT(result.control_messages, 0u);
  EXPECT_GT(result.control_bytes, result.control_messages);  // > 1 byte each
  // fanout + optimistic peer messages per node per round.
  const std::uint64_t expected =
      static_cast<std::uint64_t>(result.base.rounds) * 8 * (2 + 1);
  EXPECT_EQ(result.control_messages, expected);
}

TEST(Gossip, NoOptimisticPeerReducesTraffic) {
  const graph::Graph graph = graph::make_cycle(8);
  const Workload workload = workload_for(8, 15, 3);
  GossipConfig with_peer;
  with_peer.base.seed = 7;
  GossipConfig without_peer = with_peer;
  without_peer.optimistic_peer = false;
  const GossipResult a = run_gossip(graph, workload, with_peer);
  const GossipResult b = run_gossip(graph, workload, without_peer);
  ASSERT_TRUE(a.base.completed);
  ASSERT_TRUE(b.base.completed);
  const double per_round_a =
      static_cast<double>(a.control_messages) / a.base.rounds;
  const double per_round_b =
      static_cast<double>(b.control_messages) / b.base.rounds;
  EXPECT_GT(per_round_a, per_round_b);
}

TEST(Gossip, ViewsAreStale) {
  const graph::Graph graph = graph::make_cycle(12);
  const Workload workload = workload_for(12, 20, 4);
  GossipConfig config;
  config.base.seed = 9;
  config.fanout = 1;  // slow rotation -> stale views
  const GossipResult result = run_gossip(graph, workload, config);
  ASSERT_TRUE(result.base.completed);
  EXPECT_GT(result.mean_view_age, 0.0);
}

TEST(Gossip, LargerFanoutFreshensViews) {
  const graph::Graph graph = graph::make_cycle(12);
  const Workload workload = workload_for(12, 30, 5);
  GossipConfig slow;
  slow.base.seed = 11;
  slow.fanout = 1;
  slow.optimistic_peer = false;
  GossipConfig fast = slow;
  fast.fanout = 6;
  const GossipResult a = run_gossip(graph, workload, slow);
  const GossipResult b = run_gossip(graph, workload, fast);
  ASSERT_TRUE(a.base.completed);
  ASSERT_TRUE(b.base.completed);
  EXPECT_LT(b.mean_view_age, a.mean_view_age);
}

TEST(Gossip, StillCompletesWithDistillation) {
  const graph::Graph graph = graph::make_cycle(9);
  const Workload workload = workload_for(9, 12, 6);
  GossipConfig config;
  config.base.seed = 13;
  config.base.distillation = 2.0;
  config.base.max_rounds = 200000;
  const GossipResult result = run_gossip(graph, workload, config);
  EXPECT_TRUE(result.base.completed);
}

TEST(Gossip, RejectsZeroFanout) {
  const graph::Graph graph = graph::make_cycle(8);
  const Workload workload = workload_for(8, 5, 7);
  GossipConfig config;
  config.fanout = 0;
  EXPECT_THROW([&] { (void)run_gossip(graph, workload, config); }(),
               PreconditionError);
}

// --- pinned trajectories -----------------------------------------------
// Exact values recorded from the implementation that kept every in-flight
// report in one pending list and rescanned it each round. The exchange
// may change shape, never these numbers.

struct GossipGolden {
  std::uint32_t rounds;
  double view_age;
  std::uint64_t control_messages;
  std::uint64_t control_bytes;
};

void expect_golden(const GossipResult& result, const GossipGolden& golden) {
  EXPECT_TRUE(result.base.completed);
  EXPECT_EQ(result.base.rounds, golden.rounds);
  EXPECT_EQ(result.mean_view_age, golden.view_age);
  EXPECT_EQ(result.control_messages, golden.control_messages);
  EXPECT_EQ(result.control_bytes, golden.control_bytes);
}

TEST(GossipGolden, RandomGridDefaults) {
  util::Rng topology_rng(3);
  const graph::Graph graph = graph::make_random_connected_grid(25, topology_rng);
  util::Rng workload_rng(5);
  const Workload workload = make_uniform_workload(25, 12, 150, workload_rng);
  GossipConfig config;
  config.base.seed = 7;
  expect_golden(run_gossip(graph, workload, config),
                {280, 4.5475409836065577, 21000, 1103607});
}

TEST(GossipGolden, CycleSlowLinksNoOptimisticPeer) {
  util::Rng workload_rng(2);
  const Workload workload = make_uniform_workload(16, 8, 60, workload_rng);
  GossipConfig config;
  config.base.seed = 11;
  config.latency_per_hop = 2.5;
  config.fanout = 1;
  config.optimistic_peer = false;
  expect_golden(run_gossip(graph::make_cycle(16), workload, config),
                {137, 10.120022434099832, 2192, 74688});
}

TEST(GossipGolden, CycleHalfRoundLatencyWideFanout) {
  util::Rng workload_rng(4);
  const Workload workload = make_uniform_workload(24, 10, 80, workload_rng);
  GossipConfig config;
  config.base.seed = 13;
  config.latency_per_hop = 0.5;
  config.fanout = 5;
  expect_golden(run_gossip(graph::make_cycle(24), workload, config),
                {145, 2.4781205164992826, 20880, 1046592});
}

// Latency 0: every report arrives in the round it is sent, so all the
// reports a node installs in one round carry the same round, and the
// decide's freshness order falls back on node ids for each such pair
// (reports of one round copy one snapshot, so either side of a tie reads
// the same count). Values recorded from the single-scan decide, before
// the zero-first tiers.
TEST(GossipGolden, RandomGridZeroLatencyTiedReports) {
  util::Rng topology_rng(3);
  const graph::Graph graph = graph::make_random_connected_grid(36, topology_rng);
  util::Rng workload_rng(8);
  const Workload workload = make_uniform_workload(36, 14, 150, workload_rng);
  GossipConfig config;
  config.base.seed = 17;
  config.latency_per_hop = 0.0;
  expect_golden(run_gossip(graph, workload, config),
                {156, 4.5594248483486854, 16848, 1249884});
}

/// expect_golden at threads 1 and 4.
void expect_golden_at_1_and_4_threads(const graph::Graph& graph, const Workload& workload,
                                      GossipConfig config, const GossipGolden& golden) {
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    config.base.tick.threads = threads;
    expect_golden(run_gossip(graph, workload, config), golden);
  }
}

// Delays ceil(0.7 * hops) take 17 values on the 49-cycle, so the reports
// a node installs in one round come from up to 17 send rounds: the merge
// must take each from the right send round's outbox and snapshot. Values
// recorded from the exchange that chained each round's outbox into its
// due round's delivery list. (A pair's delay is fixed here, so one
// round never brings two reports of different send rounds from the same
// reporter to the same node, and the order among send rounds does not
// show in these numbers; GossipDelivery pins it.)
TEST(GossipGolden, CycleSubRoundLatencyManySendRounds) {
  util::Rng workload_rng(6);
  const Workload workload = make_uniform_workload(49, 16, 120, workload_rng);
  GossipConfig config;
  config.base.seed = 19;
  config.latency_per_hop = 0.7;
  config.fanout = 3;
  expect_golden_at_1_and_4_threads(graph::make_cycle(49), workload, config,
                                   {600, 7.147237621869623, 117600, 11852708});
}

// A fractional D makes every swap and consumption draw its rounding.
// Values recorded while the commit derived its keyed swap stream for
// every executed swap; it now derives it only when spend draws from it,
// with the same key.
TEST(GossipGolden, TorusFractionalDistillation) {
  util::Rng workload_rng(2);
  const Workload workload = make_uniform_workload(81, 20, 120, workload_rng);
  GossipConfig config;
  config.base.seed = 11;
  config.base.distillation = 1.5;
  expect_golden_at_1_and_4_threads(graph::make_torus_grid(81), workload, config,
                                   {713, 12.812162002131608, 173259, 28556874});
}

// --- the two exact tiers of the stale-view decide ----------------------

/// What one node holds of every reporter — report rows, their live
/// bitsets and report rounds — read through MaxMinBalancer::ReportView's
/// per-reporter references. A reporter never heard from has round 0 and
/// an all-zero row.
struct Reports {
  explicit Reports(std::size_t nodes)
      : n(nodes),
        words((nodes + 63) / 64),
        rows(n * n, 0),
        rounds(n, 0),
        live(n * words, 0),
        last(n) {
    for (NodeId r = 0; r < n; ++r) last[r] = {rows.data() + r * n, live.data() + r * words};
  }
  // A copy's references would point into the original; a move keeps the
  // vectors' storage, so they stay valid.
  Reports(const Reports&) = delete;
  Reports(Reports&&) = default;

  void set(NodeId reporter, NodeId peer, std::uint32_t count) {
    rows[reporter * n + peer] = count;
    std::uint64_t& word = live[reporter * words + peer / 64];
    const std::uint64_t bit = std::uint64_t{1} << (peer % 64);
    word = count > 0 ? word | bit : word & ~bit;
  }

  [[nodiscard]] MaxMinBalancer::ReportView view() const {
    return {last.data(), rounds.data(), words};
  }

  std::size_t n;
  std::size_t words;
  std::vector<std::uint32_t> rows;
  std::vector<std::uint32_t> rounds;
  std::vector<std::uint64_t> live;
  std::vector<MaxMinBalancer::Report> last;
};

/// A quarter of the reporters never heard from (unless `all_heard`), the
/// rest from rounds 1-4 (so equal rounds are common) or, half the time,
/// from rounds spread over [1, 2^31], far beyond any ring's depth; each
/// reported count is 0 with probability `zero`.
Reports random_reports(std::size_t n, double zero, bool all_heard, util::Rng& rng) {
  const std::size_t spread = rng.bernoulli(0.5) ? 4 : std::size_t{1} << 31;
  Reports reports(n);
  for (NodeId r = 0; r < n; ++r) {
    if (!all_heard && rng.bernoulli(0.25)) continue;
    reports.rounds[r] = 1 + static_cast<std::uint32_t>(rng.uniform_index(spread));
    for (NodeId p = 0; p < n; ++p) {
      if (p != r && !rng.bernoulli(zero)) {
        reports.set(r, p, 1 + static_cast<std::uint32_t>(rng.uniform_index(4)));
      }
    }
  }
  return reports;
}

/// The lexicographically first pair of `eligible` with a zero view that
/// `allowed` passes, found by probing every pair in order.
template <typename Allowed>
std::optional<std::pair<NodeId, NodeId>> pairwise_first_zero_view(
    const std::vector<MaxMinBalancer::Eligible>& eligible,
    const MaxMinBalancer::ReportView& reports, Allowed&& allowed) {
  for (std::size_t i = 0; i < eligible.size(); ++i) {
    for (std::size_t j = i + 1; j < eligible.size(); ++j) {
      const NodeId a = eligible[i].node;
      const NodeId b = eligible[j].node;
      if (reports.view(a, b) == 0 && allowed(a, b)) return std::pair{a, b};
    }
  }
  return std::nullopt;
}

// first_zero_view_pair (gossip's tier 1) reads only E's bits, report
// rounds and live bitsets; the oracle probes the view of every eligible
// pair in order. Eligible sets up to 130 nodes (3 bitset words),
// zero-heavy and zero-free reports, reporters never heard from, many
// equal rounds, rounds billions apart, and three `allowed` rules:
// everything, a random half, and everything but the first zero pair.
TEST(GossipZeroTier, FirstZeroViewPairMatchesPairwiseOracle) {
  util::Rng rng(0x2E51);
  std::uint64_t found = 0;
  std::uint64_t none = 0;
  std::uint64_t tied_reporters = 0;
  std::uint64_t unheard_answers = 0;
  std::uint64_t far_answers = 0;
  std::uint64_t last_word_answers = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t n = trial % 4 == 0 ? 130 : 4 + rng.uniform_index(60);
    const double zero = std::vector<double>{0.0, 0.1, 0.5, 0.9}[rng.uniform_index(4)];
    const Reports reports = random_reports(n, zero, /*all_heard=*/zero == 0.0, rng);
    std::vector<MaxMinBalancer::Eligible> eligible;
    std::vector<std::uint64_t> in_e(reports.words, 0);
    const double pick = 0.2 + 0.8 * static_cast<double>(rng.uniform_index(101)) / 100.0;
    // Every eighth set holds only nodes 120-129, in the last two words.
    for (NodeId y = trial % 8 == 0 ? 120 : 0; y < n; ++y) {
      if (rng.bernoulli(pick)) {
        eligible.push_back({y, 1 + static_cast<std::uint32_t>(rng.uniform_index(3))});
        in_e[y / 64] |= std::uint64_t{1} << (y % 64);
      }
    }
    std::vector<std::uint8_t> forbidden(n * n, 0);
    const auto allowed = [&](NodeId a, NodeId b) { return forbidden[a * n + b] == 0; };
    switch (trial % 3) {
      case 0:
        break;
      case 1:
        for (std::uint8_t& f : forbidden) f = rng.bernoulli(0.5) ? 1 : 0;
        break;
      default:
        if (const auto first = pairwise_first_zero_view(eligible, reports.view(), allowed)) {
          forbidden[first->first * n + first->second] = 1;
        }
        break;
    }
    const auto expected = pairwise_first_zero_view(eligible, reports.view(), allowed);
    const auto actual = first_zero_view_pair(in_e.data(), reports.view(), allowed);
    ASSERT_EQ(actual, expected) << "trial " << trial << " n " << n;
    if (expected) {
      ++found;
      const std::uint32_t round_a = reports.rounds[expected->first];
      const std::uint32_t round_b = reports.rounds[expected->second];
      unheard_answers += round_a == 0 || round_b == 0 ? 1 : 0;
      tied_reporters += round_a == round_b ? 1 : 0;
      far_answers += std::max(round_a, round_b) - std::min(round_a, round_b) > (1u << 20) ? 1 : 0;
      last_word_answers += expected->second >= 128 ? 1 : 0;
    } else {
      ++none;
    }
  }
  EXPECT_GT(found, 0u);
  EXPECT_GT(none, 0u);
  EXPECT_GT(tied_reporters, 0u);
  EXPECT_GT(unheard_answers, 0u);
  EXPECT_GT(far_answers, 0u);
  EXPECT_GT(last_word_answers, 0u);
}

// best_swap_with_reports, both tiers, against the §4 rule as a literal
// pairwise loop over x's eligible partners (caps C_x(y) - D, real-valued)
// reading the same stale view: D in {0, 1, 1.5, 2.75}, detour policies,
// zero-heavy and zero-free reports, up to 130 nodes.
TEST(GossipZeroTier, ReportDecideMatchesPairwiseOracle) {
  util::Rng rng(0x2E52);
  std::uint64_t zero_answers = 0;
  std::uint64_t scan_answers = 0;
  MaxMinBalancer::Scratch scratch;
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t n = trial % 4 == 0 ? 130 : 4 + rng.uniform_index(40);
    PairLedger ledger(n);
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = a + 1; b < n; ++b) {
        if (rng.bernoulli(0.5)) {
          ledger.add(a, b, 1 + static_cast<std::uint32_t>(rng.uniform_index(6)));
        }
      }
    }
    const bool zero_free = trial % 2 == 1;
    const Reports reports = random_reports(n, zero_free ? 0.0 : 0.6, zero_free, rng);
    const double d = std::vector<double>{0.0, 1.0, 1.5, 2.75}[rng.uniform_index(4)];
    const auto distances = graph::all_pairs_distances(graph::make_cycle(n));
    BalancerPolicy policy;
    if (rng.bernoulli(0.3)) policy.detour_slack = static_cast<std::uint32_t>(rng.uniform_index(2));
    const MaxMinBalancer balancer(d, policy, &distances);
    for (NodeId x = 0; x < n; x += n > 64 ? 9 : 1) {
      std::vector<std::pair<NodeId, double>> eligible;
      ledger.row(x).for_each([&](NodeId y, std::uint32_t count) {
        const double cap = static_cast<double>(count) - d;
        if (cap >= 1.0) eligible.emplace_back(y, cap);
      });
      std::optional<SwapCandidate> expected;
      for (std::size_t i = 0; i < eligible.size(); ++i) {
        for (std::size_t j = i + 1; j < eligible.size(); ++j) {
          const auto [a, cap_a] = eligible[i];
          const auto [b, cap_b] = eligible[j];
          const std::uint32_t beneficiary = reports.view().view(a, b);
          const bool allowed =
              !policy.detour_slack ||
              distances[a][x] + distances[x][b] <= distances[a][b] + *policy.detour_slack;
          if (allowed && static_cast<double>(beneficiary) + 1.0 <= std::min(cap_a, cap_b) &&
              (!expected || beneficiary < expected->beneficiary_count)) {
            expected = SwapCandidate{a, b, beneficiary};
          }
        }
      }
      const auto actual = balancer.best_swap_with_reports(ledger, x, reports.view(), scratch);
      ASSERT_EQ(actual.has_value(), expected.has_value()) << "trial " << trial << " node " << x;
      if (!expected) continue;
      EXPECT_EQ(actual->left, expected->left) << "trial " << trial << " node " << x;
      EXPECT_EQ(actual->right, expected->right) << "trial " << trial << " node " << x;
      EXPECT_EQ(actual->beneficiary_count, expected->beneficiary_count);
      (expected->beneficiary_count == 0 ? zero_answers : scan_answers) += 1;
    }
  }
  EXPECT_GT(zero_answers, 0u);
  EXPECT_GT(scan_answers, 0u);
}

// --- the ring's retention bound ------------------------------------------

// Every node's view of a report references the delivery ring's snapshot
// of its send round, so the ring must keep a snapshot until each holder
// has heard from that reporter again: its depth is the longest delay +
// ceil((n-1)/fanout) + 2, and reopening a slot still referenced throws
// InvariantError. Fanout 1 (the slowest refresh), 2 and n-1 (everyone
// every round), latencies 0-3 rounds per hop, with and without the
// optimistic peer, and a run under crash and link faults: each finishes
// without tripping that check, and gives the same result at 1 and 4
// threads.
TEST(GossipRetention, EverySettingKeepsItsReportsAndStaysDeterministic) {
  util::Rng workload_rng(21);
  const std::size_t n = 14;
  const Workload workload = make_uniform_workload(n, 8, 40, workload_rng);
  const graph::Graph graph = graph::make_cycle(n);
  const auto run = [&](GossipConfig config) {
    std::vector<GossipResult> results;
    for (const unsigned threads : {1u, 4u}) {
      config.base.tick.threads = threads;
      results.push_back(run_gossip(graph, workload, config));
    }
    return results;
  };
  const auto expect_same = [](const std::vector<GossipResult>& results,
                              const std::string& label) {
    const GossipResult& one = results[0];
    const GossipResult& four = results[1];
    EXPECT_TRUE(one.base.completed) << label;
    EXPECT_EQ(one.base.rounds, four.base.rounds) << label;
    EXPECT_EQ(one.base.swaps_performed, four.base.swaps_performed) << label;
    EXPECT_EQ(one.base.pairs_generated, four.base.pairs_generated) << label;
    EXPECT_EQ(one.base.pairs_consumed, four.base.pairs_consumed) << label;
    EXPECT_EQ(one.control_messages, four.control_messages) << label;
    EXPECT_EQ(one.control_bytes, four.control_bytes) << label;
    EXPECT_EQ(one.mean_view_age, four.mean_view_age) << label;
  };
  for (const std::uint32_t fanout : {1u, 2u, static_cast<std::uint32_t>(n - 1)}) {
    for (const double latency : {0.0, 0.5, 1.0, 3.0}) {
      for (const bool optimistic : {true, false}) {
        GossipConfig config;
        config.base.seed = 5;
        config.fanout = fanout;
        config.latency_per_hop = latency;
        config.optimistic_peer = optimistic;
        const std::string label = "fanout " + std::to_string(fanout) + " latency " +
                                  std::to_string(latency) + " optimistic " +
                                  std::to_string(optimistic);
        std::vector<GossipResult> results;
        ASSERT_NO_THROW(results = run(config)) << label;
        expect_same(results, label);
        // The run outlasts the ring (the cycle's longest path is n/2
        // hops), so every slot is reopened at least once.
        const double longest_delay = std::ceil(latency * static_cast<double>(n / 2));
        EXPECT_GT(results[0].base.rounds,
                  longest_delay + 1 + static_cast<double>((n - 2 + fanout) / fanout) + 1)
            << label;
      }
    }
  }
  GossipConfig faulty;
  faulty.base.seed = 5;
  faulty.fanout = 1;
  faulty.latency_per_hop = 1.0;
  faulty.base.faults.node_mtbf = 40.0;
  faulty.base.faults.node_mttr = 5.0;
  faulty.base.faults.link_mtbf = 30.0;
  faulty.base.faults.link_mttr = 4.0;
  faulty.base.faults.script.push_back({3, sim::FaultEventKind::kNodeDown, 2, 0, 0, 1.0});
  faulty.base.faults.script.push_back({12, sim::FaultEventKind::kNodeUp, 2, 0, 0, 1.0});
  std::vector<GossipResult> results;
  ASSERT_NO_THROW(results = run(faulty));
  EXPECT_GT(results[0].base.faults.node_crashes, 0u);
  expect_same(results, "faults");
}

// A pair's delay ceil(round + latency * hops) - round can shrink by one
// round mid-run when the sum rounds down to a whole round, and then the
// reports one sender sent one target in two consecutive send rounds
// arrive in the same round. The merge installs in send order, so the
// newer one is held; the older one's snapshot is then free to reopen,
// and the held one's is not.
TEST(GossipDelivery, NewerSendRoundIsHeldWhenTwoArriveTogether) {
  const std::size_t n = 3;
  const std::size_t depth = 4;
  DeliveryRing ring(n, /*words=*/1, /*messages_per_round=*/2, /*delays=*/3, depth);
  KnowledgeBase knowledge(n, 1, depth);
  std::vector<std::uint32_t> counts(n * n, 0);
  std::vector<std::uint64_t> live(n, 0);
  // Open `round`'s snapshot with `count` pairs between nodes 0 and 2.
  const auto open = [&](std::uint32_t round, std::uint32_t count) {
    counts[0 * n + 2] = counts[2 * n + 0] = count;
    live[0] = count > 0 ? std::uint64_t{1} << 2 : 0;
    live[2] = count > 0 ? 1 : 0;
    ring.open(round, counts, live);
  };
  open(1, 5);
  ring.post(0, 1, /*delay=*/2);  // due at round 3
  ring.deliver(knowledge);
  open(2, 7);
  ring.post(0, 1, /*delay=*/1);  // due at round 3 too
  ring.deliver(knowledge);
  EXPECT_EQ(knowledge.report_round(1, 0), 0u);
  open(3, 9);
  ring.deliver(knowledge);
  EXPECT_EQ(knowledge.report_round(1, 0), 2u);
  EXPECT_EQ(knowledge.reports(1).count(0, 2), 7u);
  open(4, 0);
  ring.deliver(knowledge);
  ASSERT_NO_THROW(open(5, 0));                  // round 1's slot
  ring.deliver(knowledge);
  EXPECT_THROW(open(6, 0), InvariantError);     // round 2's slot, still held
}

// The knowledge base takes a report only within the ring's depth of its
// send round: one from after `now`, one `depth` rounds old or older, and
// round 0 (which reads as never heard from) throw InvariantError; the
// window's two ends install.
TEST(GossipRetention, InstallOutsideTheWindowThrows) {
  const std::vector<std::uint32_t> row(3, 0);
  const std::vector<std::uint64_t> live(1, 0);
  const MaxMinBalancer::Report report{row.data(), live.data()};
  KnowledgeBase knowledge(3, 1, /*depth=*/4);
  for (const std::uint32_t stray : {11u, 6u, 1u, 0u}) {
    EXPECT_THROW((void)knowledge.install(0, 1, report, stray, /*now=*/10), InvariantError)
        << "round " << stray;
  }
  EXPECT_EQ(knowledge.install(0, 1, report, 7, 10), 0u);
  EXPECT_EQ(knowledge.install(0, 1, report, 10, 10), 7u);
  EXPECT_EQ(knowledge.report_round(0, 1), 10u);
  EXPECT_EQ(knowledge.install(2, 1, report, 1, 1), 0u);
}

}  // namespace
}  // namespace poq::core
