// Microbenchmarks for poqnet's hot kernels (google-benchmark).
//
// These guard the costs that dominate the figure harnesses: the §4
// best-swap scan, gossip's report sizing, ledger updates, shortest paths
// and the simplex solver.
#include <benchmark/benchmark.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/balancing_sim.hpp"
#include "core/distributed.hpp"
#include "core/ledger.hpp"
#include "core/lp_formulation.hpp"
#include "core/maxmin_balancer.hpp"
#include "core/workload.hpp"
#include "graph/shortest_path.hpp"
#include "graph/topology.hpp"
#include "net/message.hpp"
#include "sim/network_state.hpp"
#include "util/rng.hpp"

namespace {

using namespace poq;

void BM_LedgerAddRemove(benchmark::State& state) {
  core::PairLedger ledger(64);
  util::Rng rng(1);
  for (auto _ : state) {
    const auto x = static_cast<core::NodeId>(rng.uniform_index(64));
    auto y = static_cast<core::NodeId>(rng.uniform_index(64));
    if (y == x) y = (y + 1) % 64;
    ledger.add(x, y);
    ledger.remove(x, y);
  }
}
BENCHMARK(BM_LedgerAddRemove);

/// Keyed stream derivation, scalar vs batched: the batch hoists the
/// (seed, a, b) sponge prefix and loops one mix per entity, so the
/// per-stream cost should drop well below the scalar 4-fold derivation.
void BM_KeyedDeriveScalar(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<util::Rng> streams(count, util::Rng(0));
  std::uint64_t round = 0;
  for (auto _ : state) {
    for (std::size_t e = 0; e < count; ++e) {
      streams[e] = util::Rng::keyed(42, 7, round, e);
    }
    benchmark::DoNotOptimize(streams.data());
    ++round;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_KeyedDeriveScalar)->Arg(1024)->Arg(16384);

void BM_KeyedDeriveBatch(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<util::Rng> streams(count, util::Rng(0));
  std::uint64_t round = 0;
  for (auto _ : state) {
    util::Rng::keyed_batch(42, 7, round, 0, streams);
    benchmark::DoNotOptimize(streams.data());
    ++round;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_KeyedDeriveBatch)->Arg(1024)->Arg(16384);

/// Per-entity Bernoulli decisions, branching scalar path (full stream
/// construction + uniform_double compare) vs the branch-free batched
/// integer-threshold loop. Both produce bit-identical decisions.
void BM_BernoulliScalar(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> flags(count, 0);
  std::uint64_t round = 0;
  for (auto _ : state) {
    for (std::size_t e = 0; e < count; ++e) {
      util::Rng rng = util::Rng::keyed(42, 7, round, e);
      flags[e] = rng.bernoulli(0.37) ? 1 : 0;
    }
    benchmark::DoNotOptimize(flags.data());
    ++round;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_BernoulliScalar)->Arg(1024)->Arg(16384);

void BM_BernoulliBatchBranchFree(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> flags(count, 0);
  std::uint64_t round = 0;
  for (auto _ : state) {
    util::Rng::bernoulli_batch(42, 7, round, 0, 0.37, flags);
    benchmark::DoNotOptimize(flags.data());
    ++round;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_BernoulliBatchBranchFree)->Arg(1024)->Arg(16384);

/// The generation merge on the megascale shape: every edge of a fixed
/// grid +1 per round, one canonical-order add per edge (what
/// NetworkState::generate runs at integral rates).
void BM_LedgerGenerateMerge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng topo_rng(3);
  const graph::Graph graph = graph::make_random_connected_grid(n, topo_rng);
  core::PairLedger ledger(n);
  for (auto _ : state) {
    for (const graph::Edge& edge : graph.edges()) ledger.add(edge.a(), edge.b(), 1);
    benchmark::DoNotOptimize(ledger.total_pairs());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(graph.edge_count()));
}
BENCHMARK(BM_LedgerGenerateMerge)->Arg(1024)->Arg(10000);

/// Deck-shaped ledger rows: each pair is live with probability
/// `live` (0.7: 55 of 80 partners on the paper's 81-node full grid), and
/// 30% of live pairs hold enough to spend at D = 1 (the decks measured
/// 16-20 eligible of 55-66 partners); the rest hold one pair. Two thirds
/// of those eligible pairs hold 2 (room 1) and the rest 3-4 (room 2-3),
/// so tier 2 scans about a tenth of the eligible pairs, as on the decks
/// (23 of 210).
core::PairLedger deck_shaped_ledger(std::size_t n, std::uint64_t seed, double live = 0.7) {
  core::PairLedger ledger(n);
  util::Rng rng(seed);
  for (core::NodeId x = 0; x < n; ++x) {
    for (core::NodeId y = x + 1; y < n; ++y) {
      if (!rng.bernoulli(live)) continue;
      std::uint32_t count = 1;
      if (rng.bernoulli(0.3)) {
        count = rng.bernoulli(1.0 / 3.0) ? 3 + static_cast<std::uint32_t>(rng.uniform_index(2))
                                         : 2;
      }
      ledger.add(x, y, count);
    }
  }
  return ledger;
}

/// A ledger whose rows hold at most 8 live partners in any bitset word,
/// as on hotpath's sparse random-grid 225 cell: room_masks reads such
/// words bit by bit instead of comparing all 64 counts.
core::PairLedger sparse_ledger(std::size_t n, std::uint64_t seed) {
  core::PairLedger ledger(n);
  util::Rng rng(seed);
  const auto room_in_word = [&ledger](core::NodeId x, core::NodeId y) {
    return std::popcount(ledger.live_row(x)[y / 64]) < 8;
  };
  for (core::NodeId x = 0; x < n; ++x) {
    for (core::NodeId y = x + 1; y < n; ++y) {
      if (rng.bernoulli(0.06) && room_in_word(x, y) && room_in_word(y, x)) {
        ledger.add(x, y, 1 + static_cast<std::uint32_t>(rng.uniform_index(4)));
      }
    }
  }
  return ledger;
}

/// One §4 decide per iteration, cycling over the nodes. On deck-shaped
/// rows (rows = 0) most decides end in tier 1, at a zero pair; with
/// every pair live (rows = 1) there is none, and every decide runs tier
/// 2's scan over the room >= 2 partners; sparse rows (rows = 2, at most
/// 8 live partners a word) take room_masks' bit walk.
void BM_BestSwapScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::int64_t rows = state.range(1);
  const core::PairLedger ledger = rows == 2 ? sparse_ledger(n, 7)
                                  : deck_shaped_ledger(n, 7, rows == 1 ? 1.0 : 0.7);
  const core::MaxMinBalancer balancer(1.0);
  core::MaxMinBalancer::Scratch scratch;
  scratch.reserve(n);
  core::NodeId node = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(balancer.best_swap(ledger, node, scratch));
    node = (node + 1) % static_cast<core::NodeId>(n);
  }
}
BENCHMARK(BM_BestSwapScan)
    ->ArgNames({"n", "rows"})
    ->Args({49, 0})
    ->Args({81, 0})
    ->Args({100, 0})
    ->Args({81, 1})
    ->Args({100, 1})
    ->Args({225, 2});

/// One gossip round's report sizing over every sender of a deck-shaped
/// 81-node ledger: the closed form over each row's live counts (encode =
/// 0), against building each dense CountUpdate and sizing it with the
/// encoder (encode = 1). Both return the same byte total.
void BM_CountReportSize(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool encode = state.range(1) != 0;
  const core::PairLedger ledger = deck_shaped_ledger(n, 11);
  net::CountUpdate update;
  update.entries.reserve(n - 1);
  std::uint32_t round = 0;
  for (auto _ : state) {
    std::size_t bytes = 0;
    for (core::NodeId x = 0; x < n; ++x) {
      if (!encode) {
        bytes += net::count_report_size(x, round, n, {ledger.dense_row(x), n});
        continue;
      }
      const std::uint32_t* row = ledger.dense_row(x);
      update.reporter = x;
      update.version = round;
      update.entries.clear();
      for (core::NodeId peer = 0; peer < n; ++peer) {
        if (peer != x) update.entries.push_back({peer, row[peer]});
      }
      bytes += net::encoded_size(update);
    }
    benchmark::DoNotOptimize(bytes);
    ++round;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CountReportSize)->ArgNames({"n", "encode"})->Args({81, 0})->Args({81, 1});

/// Membership churn: every iteration flips one pair between 0 and 1,
/// the pair's birth or death. n = 64 keeps the dense mirror (two mirror
/// stores and two bit flips); n = 2048 is above
/// PairLedger::kFullReserveNodeLimit (an insert into, or an erase from,
/// both sorted rows, shifting ids and counts).
void BM_LedgerPartnerChurn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::PairLedger ledger(n);
  util::Rng rng(2);
  for (core::NodeId x = 0; x < n; ++x) {
    for (core::NodeId y = x + 1; y < n; ++y) {
      if (rng.bernoulli(0.3)) ledger.add(x, y);
    }
  }
  util::Rng pick(3);
  for (auto _ : state) {
    const auto x = static_cast<core::NodeId>(pick.uniform_index(n));
    auto y = static_cast<core::NodeId>(pick.uniform_index(n));
    if (y == x) y = static_cast<core::NodeId>((y + 1) % n);
    const std::uint32_t count = ledger.count(x, y);
    if (count == 0) {
      ledger.add(x, y);
    } else {
      ledger.remove(x, y, count);
    }
  }
}
BENCHMARK(BM_LedgerPartnerChurn)->Arg(64)->Arg(2048);

/// One §4 swap's ledger mutations per iteration: the two donor removes
/// and the beneficiary pair's add. Rows are deck-shaped (70% of partners
/// live, every count >= 2), so most mutations only move a count, as on
/// the serve decks, and an add now and then inserts a new pair. n = 81
/// keeps the dense mirror (two stores per count move); n = 2048 is above
/// PairLedger::kFullReserveNodeLimit and searches the sorted rows. Each
/// pass replays a fixed list of swaps and is undone untimed.
void BM_LedgerSwapMutation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::PairLedger ledger(n);
  util::Rng rng(5);
  for (core::NodeId x = 0; x < n; ++x) {
    for (core::NodeId y = x + 1; y < n; ++y) {
      if (rng.bernoulli(0.7)) {
        ledger.add(x, y, 2 + static_cast<std::uint32_t>(rng.uniform_index(5)));
      }
    }
  }
  struct Swap {
    core::NodeId x, l, r;
  };
  const auto apply = [&ledger](const Swap& swap) {
    ledger.remove(swap.x, swap.l);
    ledger.remove(swap.x, swap.r);
    ledger.add(swap.l, swap.r);
  };
  const auto undo = [&ledger](const std::vector<Swap>& swaps) {
    for (auto it = swaps.rbegin(); it != swaps.rend(); ++it) {
      ledger.remove(it->l, it->r);
      ledger.add(it->x, it->r);
      ledger.add(it->x, it->l);
    }
  };
  // Draw swaps whose donor pairs hold at least 2 at their turn, so no
  // remove erases a pair.
  std::vector<Swap> swaps;
  std::vector<std::pair<core::NodeId, std::uint32_t>> row;
  while (swaps.size() < 1024) {
    const auto x = static_cast<core::NodeId>(rng.uniform_index(n));
    row.clear();
    ledger.row(x).for_each(
        [&row](core::NodeId y, std::uint32_t count) { row.emplace_back(y, count); });
    const std::size_t i = rng.uniform_index(row.size());
    const std::size_t j = rng.uniform_index(row.size());
    if (i == j || row[i].second < 2 || row[j].second < 2) continue;
    swaps.push_back({x, row[i].first, row[j].first});
    apply(swaps.back());
  }
  undo(swaps);
  std::size_t next = 0;
  for (auto _ : state) {
    apply(swaps[next]);
    if (++next == swaps.size()) {
      state.PauseTiming();
      undo(swaps);
      next = 0;
      state.ResumeTiming();
    }
  }
  benchmark::DoNotOptimize(ledger.total_pairs());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LedgerSwapMutation)->Arg(81)->Arg(2048);

void BM_LedgerPartnersScan(benchmark::State& state) {
  core::PairLedger ledger(128);
  util::Rng rng(4);
  for (core::NodeId x = 0; x < 128; ++x) {
    for (core::NodeId y = x + 1; y < 128; ++y) {
      if (rng.bernoulli(0.25)) ledger.add(x, y);
    }
  }
  core::NodeId node = 0;
  for (auto _ : state) {
    std::uint64_t sum = 0;
    ledger.row(node).for_each([&sum](core::NodeId y, std::uint32_t) { sum += y; });
    benchmark::DoNotOptimize(sum);
    node = (node + 1) % 128;
  }
}
BENCHMARK(BM_LedgerPartnersScan);

/// Decide-kernel cost per round: every node of a random grid's
/// NetworkState (n = range(0)) re-decided from scratch over a ledger where
/// 30% of pairs are live.
void BM_DecideKernel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng topo_rng(3);
  const graph::Graph graph = graph::make_random_connected_grid(n, topo_rng);
  sim::TickConcurrency tick;
  tick.threads = 1;
  sim::NetworkState net(graph, 1, tick);
  const core::MaxMinBalancer balancer(1.0);
  util::Rng fill(7);
  for (core::NodeId x = 0; x < n; ++x) {
    for (core::NodeId y = x + 1; y < n; ++y) {
      if (fill.bernoulli(0.3)) {
        net.ledger().add(x, y, 1 + static_cast<std::uint32_t>(fill.uniform_index(4)));
      }
    }
  }
  const auto decide = [&](core::NodeId x, core::MaxMinBalancer::Scratch& s) {
    return balancer.best_swap(net.ledger(), x, s);
  };
  for (auto _ : state) {
    net.decide_swaps(decide);
    benchmark::DoNotOptimize(net.candidates().data());
  }
}
BENCHMARK(BM_DecideKernel)->Arg(100)->Arg(225);

/// Per-run control-plane cost of the distributed protocol at growing n
/// (cycle topology, constant degree): sparse CountUpdate messages to
/// believed partners should keep the measured bytes-per-epoch roughly
/// linear in n — the counter lands in the bench's user counters, so the
/// n=64 -> n=256 pair makes a dense n^2 rebroadcast regression visible
/// as a superlinear jump, alongside the wall-time per epoch.
void BM_DistributedControlPlane(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph graph = graph::make_cycle(n);
  util::Rng workload_rng(5);
  const core::Workload workload =
      core::make_uniform_workload(n, 10, 100000, workload_rng);
  core::DistributedConfig config;
  config.seed = 9;
  config.duration = 25.0;
  const auto epochs = std::ceil(config.duration / config.dt);
  double bytes_per_epoch = 0.0;
  for (auto _ : state) {
    const core::DistributedResult result =
        core::run_distributed(graph, workload, config);
    bytes_per_epoch = static_cast<double>(result.control_bytes) / epochs;
    benchmark::DoNotOptimize(result.control_messages);
  }
  state.counters["bytes_per_epoch"] = bytes_per_epoch;
  state.counters["bytes_per_epoch_per_node"] =
      bytes_per_epoch / static_cast<double>(n);
}
BENCHMARK(BM_DistributedControlPlane)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_BalancingRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng topo_rng(3);
  const graph::Graph graph = graph::make_random_connected_grid(n, topo_rng);
  util::Rng workload_rng(5);
  const core::Workload workload = core::make_uniform_workload(
      n, std::min<std::size_t>(35, n * (n - 1) / 2), 1000000, workload_rng);
  core::BalancingConfig config;
  core::BalancingSimulation sim(graph, workload, config);
  for (auto _ : state) {
    sim.step_round();
  }
}
BENCHMARK(BM_BalancingRound)->Arg(25)->Arg(49);

void BM_AllPairsBfs(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph graph = graph::make_torus_grid(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::all_pairs_distances(graph));
  }
}
BENCHMARK(BM_AllPairsBfs)->Arg(25)->Arg(100);

void BM_SteadyStateLpMinGeneration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::SteadyStateSpec spec;
  spec.node_count = n;
  const graph::Graph graph = graph::make_cycle(n);
  for (const graph::Edge& edge : graph.edges()) {
    spec.generation_capacity.push_back(
        core::RatedPair{core::NodePair(edge.a(), edge.b()), 100.0});
  }
  spec.demand.push_back(core::RatedPair{core::NodePair(0, static_cast<core::NodeId>(n / 2)), 1.0});
  const core::SteadyStateLp lp(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp.solve(core::SteadyStateObjective::kMinTotalGeneration));
  }
}
BENCHMARK(BM_SteadyStateLpMinGeneration)->Arg(6)->Arg(10)->Arg(14)->Unit(benchmark::kMillisecond);

}  // namespace
