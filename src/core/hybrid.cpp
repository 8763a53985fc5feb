#include "core/hybrid.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/cancel.hpp"
#include "util/error.hpp"

namespace poq::core {

AssistRouter::AssistRouter(std::size_t node_count, std::uint32_t max_hops)
    : max_hops_(max_hops),
      parent_(node_count, 0),
      depth_(node_count, 0),
      seen_(node_count, 0) {
  const std::size_t edges =
      std::min<std::size_t>(max_hops, std::max<std::size_t>(node_count, 1) - 1);
  queue_.reserve(node_count);
  path_.reserve(edges + 1);
  demand_.edge_raw_demand.reserve(edges);
}

const std::vector<NodeId>& AssistRouter::route(const PairLedger& ledger,
                                               const NodePair& pair) {
  const NodeId source = pair.first;
  const NodeId target = pair.second;
  path_.clear();
  queue_.clear();
  if (++epoch_ == 0) {  // stamps wrapped: forget every old mark
    std::fill(seen_.begin(), seen_.end(), 0);
    epoch_ = 1;
  }
  seen_[source] = epoch_;
  depth_[source] = 0;
  queue_.push_back(source);
  bool found = false;
  for (std::size_t head = 0; head < queue_.size() && !found; ++head) {
    const NodeId u = queue_[head];
    // Breadth-first: every later node is at least this deep, and a path
    // through it would be longer than max_hops.
    if (depth_[u] >= max_hops_) break;
    ledger.row(u).for_each([&](NodeId v, std::uint32_t) {
      if (found || seen_[v] == epoch_ || (u == source && v == target)) return;
      seen_[v] = epoch_;
      parent_[v] = u;
      depth_[v] = depth_[u] + 1;
      found = v == target;
      if (!found) queue_.push_back(v);
    });
  }
  if (found) {
    for (NodeId at = target; at != source; at = parent_[at]) path_.push_back(at);
    path_.push_back(source);
    std::reverse(path_.begin(), path_.end());
  }
  return path_;
}

namespace {

/// What an assist did to the ledger; all zero when no viable path exists.
struct Assist {
  double swaps = 0.0;
  std::uint64_t spent = 0;
  std::uint32_t produced = 0;
};

/// Try to produce the head request's pairs by nested swapping along a
/// shortest entanglement-graph path.
Assist attempt_assist(BalancingSimulation& sim, AssistRouter& router,
                      const NodePair& pair, double distillation) {
  PairLedger& ledger = sim.ledger();
  // A direct pair that exists but is too weak to consume would be found as
  // a 1-edge "path"; the router routes around it so the assist can top
  // the count up.
  const std::vector<NodeId>& path = router.route(ledger, pair);
  if (path.empty()) return {};
  const std::size_t hops = path.size() - 1;

  // Consumption will destroy D raw (x,y) pairs, so the assist must
  // manufacture the consumption need, max(1, ceil(D)), of them; top-level
  // usable_need = 1 already yields D raw top pairs in
  // compute_nested_demand's accounting.
  NestedDemand& demand = router.demand();
  compute_nested_demand(hops, distillation, demand);
  for (std::size_t k = 0; k + 1 < path.size(); ++k) {
    const auto have = ledger.count(path[k], path[k + 1]);
    if (static_cast<double>(have) < std::ceil(demand.edge_raw_demand[k])) {
      return {};  // some span pair cannot cover its share
    }
  }
  // Execute: consume the span pairs, credit the end-to-end raw pairs.
  Assist assist{demand.swap_count, 0, sim.balancer().consumption_need()};
  for (std::size_t k = 0; k + 1 < path.size(); ++k) {
    const auto spent = static_cast<std::uint32_t>(std::ceil(demand.edge_raw_demand[k]));
    ledger.remove(path[k], path[k + 1], spent);
    assist.spent += spent;
  }
  ledger.add(pair.first, pair.second, assist.produced);
  return assist;
}

}  // namespace

HybridResult run_hybrid(const graph::Graph& generation_graph, const Workload& workload,
                        const HybridConfig& config) {
  BalancingSimulation sim(generation_graph, workload, config.base);
  AssistRouter router(generation_graph.node_count(), config.max_assist_hops);
  HybridResult result;

  while (!sim.finished()) {
    util::this_thread_check_cancelled();
    sim.begin_round();
    sim.fault_phase();
    sim.generation_phase();
    sim.swap_phase();

    // Assist the head request if it is still blocked after balancing.
    // head_pair() serves both modes: the fixed-sequence cursor and the
    // streaming pending queue.
    {
      const sim::PhaseStopwatch stopwatch(sim.state().timers().assist_ns);
      if (const std::optional<NodePair> head = sim.head_pair()) {
        const NodePair& pair = *head;
        if (sim.ledger().count(pair.first, pair.second) <
            sim.balancer().consumption_need()) {
          ++result.assists_attempted;
          const Assist assist =
              attempt_assist(sim, router, pair, config.base.distillation);
          // At D = 0 an assist needs no swap: its pairs are booked, but it
          // does not count as a success.
          sim.record_swaps(static_cast<std::uint64_t>(std::llround(assist.swaps)),
                           assist.spent, assist.produced);
          if (assist.swaps > 0.0) {
            ++result.assists_succeeded;
            result.assist_swaps += assist.swaps;
          }
        }
      }
    }

    sim.consumption_phase();
  }

  result.base = sim.result();
  return result;
}

}  // namespace poq::core
