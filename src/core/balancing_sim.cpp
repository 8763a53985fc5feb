#include "core/balancing_sim.hpp"

#include <algorithm>
#include <cmath>

#include "core/nested.hpp"
#include "graph/shortest_path.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"

namespace poq::core {

namespace {

/// The config's own checks, run before any member is built from it.
const BalancingConfig& checked(const BalancingConfig& config) {
  require(std::isfinite(config.distillation) && config.distillation >= 0.0,
          "BalancingConfig: D (distillation) must be finite and >= 0");
  // floor(rate) plus a rounding pair per edge and round is a uint32 amount.
  const double rate = config.generation_per_edge_per_round;
  require(std::isfinite(rate) && rate >= 0.0 && std::floor(rate) + 1.0 <= UINT32_MAX,
          "BalancingConfig: generation rate must be finite, >= 0 and < 2^32 - 1");
  require(std::isfinite(config.arrival_rate) && config.arrival_rate >= 0.0,
          "BalancingConfig: arrival rate must be finite and >= 0");
  return config;
}

}  // namespace

BalancingSimulation::BalancingSimulation(const graph::Graph& generation_graph,
                                         const Workload& workload,
                                         const BalancingConfig& config)
    : generation_graph_(generation_graph),
      workload_(workload),
      config_(checked(config)),
      oracle_(generation_graph),
      state_(generation_graph, config.seed, config.tick),
      // The dense distance matrix is materialized only when the decide
      // kernel actually reads it (detour slack); megascale runs stay
      // O(nodes + edges).
      balancer_(config.distillation, config.policy,
                config.policy.detour_slack ? &oracle_.dense() : nullptr),
      consume_rng_(util::Rng(config.seed).fork(3)) {
  require(generation_graph.node_count() >= 3,
          "BalancingSimulation: need at least 3 nodes to swap");
  if (config_.faults.enabled()) {
    fault_plan_.emplace(generation_graph, config_.faults, config_.seed);
    state_.set_fault_plan(&*fault_plan_);
  }
  const std::size_t n = generation_graph.node_count();
  pool_size_ = config_.consumer_pool > 0
                   ? static_cast<std::size_t>(config_.consumer_pool)
                   : n * (n - 1) / 2;
  for (const NodePair& pair : workload.pairs) {
    require(pair.second < generation_graph.node_count(),
            "BalancingSimulation: workload references unknown node");
    require(oracle_.distance(pair.first, pair.second) != graph::kUnreachable,
            "BalancingSimulation: consumer pair disconnected");
  }
}

bool BalancingSimulation::finished() const {
  if (result_.rounds >= config_.max_rounds) return true;
  if (streaming()) {
    return config_.max_requests > 0 &&
           result_.requests_satisfied >= config_.max_requests;
  }
  return head_ >= workload_.request_count();
}

void BalancingSimulation::begin_round() { ++result_.rounds; }

void BalancingSimulation::fault_phase() {
  if (!fault_plan_) return;
  // Serial phase between the round boundary and the generation kernel:
  // the plan's keyed streams make the trajectory identical at every
  // threads setting, and each crashed node's pairs leave the
  // ledger in one PairLedger::remove_node.
  const std::vector<NodeId>& crashed = fault_plan_->advance(result_.rounds);
  for (const NodeId x : crashed) {
    fault_plan_->record_purged(state_.purge_node(x));
  }
}

void BalancingSimulation::generation_phase() {
  // Per-(round, edge) keyed streams live in the generation kernel.
  result_.pairs_generated += state_.generate(
      result_.rounds, config_.generation_per_edge_per_round);
}

void BalancingSimulation::swap_phase() {
  swap_phase(
      [this](NodeId x, MaxMinBalancer::Scratch& scratch) {
        return balancer_.best_swap(ledger(), x, scratch);
      },
      [this](NodeId x, const SwapCandidate& candidate) {
        // An earlier commit of this pass may have consumed the pairs
        // this choice needed.
        return balancer_.is_preferable(ledger(), x, candidate.left,
                                       candidate.right);
      });
}

void BalancingSimulation::swap_phase(const sim::NetworkState::DecideFn& decide,
                                     const sim::NetworkState::RecheckFn& recheck,
                                     const sim::NetworkState::ObserveFn& observe) {
  // Synchronous-round semantics: every node picks its best preferable swap
  // against the frozen post-generation ledger (the expensive O(P^2) scan,
  // fanned across node chunks), then the choices commit serially in
  // canonical rotating order with preferability re-checks — so the
  // commit order, not the worker schedule, decides every conflict.
  // Fractional-D rounding draws come from per-(round, node, attempt)
  // streams, consumed only on commit.
  const auto node_count = static_cast<NodeId>(state_.node_count());
  const auto first = static_cast<NodeId>(result_.rounds % node_count);
  for (std::uint32_t attempt = 0; attempt < config_.swaps_per_node_per_round;
       ++attempt) {
    state_.decide_swaps(decide);
    const sim::NetworkState::CommitStats stats = state_.commit_swaps(
        balancer_, first, result_.rounds, attempt, recheck, observe);
    result_.swaps_performed += stats.swaps;
    result_.pairs_spent_on_swaps += stats.pairs_consumed;
    result_.pairs_produced_by_swaps += stats.pairs_produced;
    if (stats.swaps == 0) break;  // a fixed point for this round
  }
}

NodePair BalancingSimulation::pool_pair(std::uint64_t j) const {
  // Derived, not stored: pair j of the virtual pool comes from its own
  // keyed stream, so any pool size (millions of consumer pairs) costs
  // nothing and the draw is independent of when j is first referenced.
  util::Rng rng =
      util::Rng::keyed(config_.seed, sim::stream_tag::kConsumerPair, j, 0);
  const std::size_t n = generation_graph_.node_count();
  const auto u = static_cast<NodeId>(rng.uniform_index(n));
  auto v = static_cast<NodeId>(rng.uniform_index(n - 1));
  if (v >= u) ++v;  // skip u: uniform over the other n-1 nodes
  return NodePair(u, v);
}

std::optional<NodePair> BalancingSimulation::head_pair() const {
  if (streaming()) {
    if (pending_.empty()) return std::nullopt;
    return pool_pair(pending_.front());
  }
  if (head_ >= workload_.request_count()) return std::nullopt;
  return workload_.request(head_);
}

void BalancingSimulation::arrival_phase() {
  // Serial phase, one keyed stream per round: arrivals are deterministic
  // at every threads setting and independent of the round's other
  // draws.
  util::Rng rng = util::Rng::keyed(config_.seed,
                                   sim::stream_tag::kConsumerArrival,
                                   result_.rounds, 0);
  const std::uint64_t arrivals = rng.poisson(config_.arrival_rate);
  for (std::uint64_t i = 0; i < arrivals; ++i) {
    pending_.push_back(rng.uniform_index(pool_size_));
  }
  result_.requests_arrived += arrivals;
}

void BalancingSimulation::consumption_phase() {
  if (streaming()) arrival_phase();
  while (true) {
    const std::optional<NodePair> head = head_pair();
    if (!head) break;
    const NodePair pair = *head;
    // A consumption event uses (and destroys) D pairs (§3.2's r-).
    if (ledger().count(pair.first, pair.second) < balancer_.consumption_need()) break;
    const std::uint32_t amount = std::max(1u, balancer_.spend(consume_rng_));
    ledger().remove(pair.first, pair.second,
                    std::min(amount, ledger().count(pair.first, pair.second)));
    result_.pairs_consumed += amount;
    ++result_.requests_satisfied;
    if (fault_plan_) fault_plan_->record_delivery(result_.rounds);
    // Satisfied pairs are connected by construction (their count was
    // nonzero), so the hop lookup is total; the lazy oracle caches the
    // few rows the consumer set actually touches.
    const std::uint32_t hops = oracle_.distance(pair.first, pair.second);
    result_.denominator_paper += nested_swap_cost_paper(hops, config_.distillation);
    result_.denominator_exact += nested_swap_cost_exact(hops, config_.distillation);
    result_.head_wait_rounds.add(static_cast<double>(result_.rounds - head_since_));
    if (streaming()) {
      pending_.pop_front();
    } else {
      ++head_;
    }
    head_since_ = result_.rounds;
    if (streaming() && config_.max_requests > 0 &&
        result_.requests_satisfied >= config_.max_requests) {
      result_.completed = true;
      break;
    }
  }
  if (streaming()) {
    result_.backlog = pending_.size();
    result_.backlog_peak = std::max(result_.backlog_peak, result_.backlog);
  } else if (head_ >= workload_.request_count()) {
    result_.completed = true;
  }
}

std::uint64_t BalancingSimulation::memory_bytes() const {
  return state_.memory_bytes() + oracle_.memory_bytes() +
         pending_.size() * sizeof(std::uint64_t);
}

void BalancingSimulation::step_round() {
  begin_round();
  fault_phase();
  generation_phase();
  swap_phase();
  consumption_phase();
}

BalancingResult BalancingSimulation::run() {
  // Requests may already be satisfiable at round 0 (e.g. adjacent pairs
  // after the first generation round); the loop handles that naturally.
  while (!finished()) {
    util::this_thread_check_cancelled();
    step_round();
  }
  return result();
}

BalancingResult run_balancing(const graph::Graph& generation_graph,
                              const Workload& workload,
                              const BalancingConfig& config) {
  BalancingSimulation simulation(generation_graph, workload, config);
  return simulation.run();
}

}  // namespace poq::core
