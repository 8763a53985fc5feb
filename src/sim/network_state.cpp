#include "sim/network_state.hpp"

#include <algorithm>
#include <cmath>

#include "quantum/werner.hpp"
#include "util/error.hpp"

namespace poq::sim {

NetworkState::NetworkState(const graph::Graph& generation_graph,
                           std::uint64_t seed, const TickConcurrency& tick,
                           std::optional<DecayModel> decay)
    : graph_(generation_graph),
      seed_(seed),
      ledger_(generation_graph.node_count()),
      decay_(decay) {
  const std::size_t n = graph_.node_count();
  pool_ = std::make_unique<ParallelTickEngine>(tick.threads);
  // Decide scratch is per pool worker (node chunks are claimed
  // dynamically; any worker may run any chunk, and scratch never leaks
  // into results).
  worker_scratch_.resize(pool_->thread_count());
  // Pre-size every per-round scratch once: the steady-state round
  // allocates nothing (asserted by the hot-path allocation test). The
  // eligible list is bounded by a node's partner degree, so megascale
  // networks cap the reserve at the full-reserve limit — on sparse
  // topologies degrees never approach it, and a denser node just grows
  // its worker's scratch once, amortized.
  const std::size_t scratch_nodes =
      std::min(n, core::PairLedger::kFullReserveNodeLimit + 1);
  for (core::MaxMinBalancer::Scratch& scratch : worker_scratch_) {
    scratch.reserve(scratch_nodes);
  }
  generation_flags_.assign(graph_.edge_count(), 0);
  candidates_.assign(n, std::nullopt);
  if (decay_) {
    pair_store_.emplace(graph_.node_count());
    // One drop list per decohere chunk (the chunk count is fixed: nodes
    // and grain never change after construction).
    purge_entries_.resize((graph_.node_count() + grain::kDecohere - 1) /
                          grain::kDecohere);
  }
}

void NetworkState::generate_chunk(std::size_t begin, std::size_t end) {
  // One batched draw over the chunk's edge range: bernoulli_batch is
  // element-for-element the scalar keyed(seed, tag, round, e).bernoulli
  // decision, so the flags are identical however the range is chunked.
  util::Rng::bernoulli_batch(
      seed_, stream_tag::kGeneration, gen_round_, begin, gen_frac_,
      std::span<std::uint8_t>(generation_flags_.data() + begin, end - begin));
}

std::uint64_t NetworkState::generate(std::uint32_t round, double rate) {
  const PhaseStopwatch stopwatch(timers_.generate_ns);
  // Fault phase: the plan's per-round rate factor scales the rate before
  // the whole/fraction split, and unavailable edges are masked out of the
  // merge below.
  const bool faulty = fault_plan_ != nullptr;
  if (faulty) rate *= fault_plan_->rate_factor();
  const bool masked = faulty && fault_plan_->any_edge_down();
  const double whole = std::floor(rate);
  const double frac = rate - whole;
  const auto whole_amount = static_cast<std::uint32_t>(whole);
  const std::span<const graph::Edge> edges(graph_.edges());
  if (frac > 0.0) {
    // Fractional rate: each edge's rounding flag comes from its own stream
    // keyed (seed, tag, round, edge), batch-derived over dynamically
    // scheduled chunks into disjoint slices of generation_flags_. Masked
    // edges still get their flag derived (so masking never shifts another
    // edge's stream); the merge below skips them.
    gen_round_ = round;
    gen_frac_ = frac;
    pool_->run_chunks(edges.size(), grain::kGenerate, &timers_.generate_load,
                      [this](std::size_t begin, std::size_t end, unsigned) {
                        generate_chunk(begin, end);
                      });
  } else if (whole_amount == 0) {
    return 0;
  }
  // The merge runs on the caller in canonical edge order (adds commute,
  // but a fixed order keeps the ledger single-threaded and
  // reproducible).
  std::uint64_t added = 0;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (masked && !fault_plan_->edge_up(e)) continue;
    const std::uint32_t amount =
        frac > 0.0 ? whole_amount + generation_flags_[e] : whole_amount;
    ledger_.add(edges[e].a(), edges[e].b(), amount);
    added += amount;
  }
  return added;
}

std::uint64_t NetworkState::purge_node(core::NodeId x) {
  if (pair_store_) {
    ledger_.row(x).for_each([&](core::NodeId y, std::uint32_t) {
      if (std::vector<TrackedPair>* bucket = pair_store_->find(x, y)) {
        bucket->clear();
      }
    });
  }
  return ledger_.remove_node(x);
}

void NetworkState::decide_chunk(std::size_t begin, std::size_t end,
                                unsigned worker) {
  // Scratch is indexed by worker, not chunk: it is pure workspace, so the
  // dynamic chunk-to-worker assignment never reaches a result.
  core::MaxMinBalancer::Scratch& scratch = worker_scratch_[worker];
  for (auto x = static_cast<core::NodeId>(begin); x < end; ++x) {
    candidates_[x] = (*decide_fn_)(x, scratch);
  }
}

void NetworkState::decide_swaps(const DecideFn& decide) {
  const PhaseStopwatch stopwatch(timers_.decide_ns);
  decide_fn_ = &decide;
  pool_->run_chunks(graph_.node_count(), grain::kDecide, &timers_.decide_load,
                    [this](std::size_t begin, std::size_t end,
                           unsigned worker) {
                      decide_chunk(begin, end, worker);
                    });
  decide_fn_ = nullptr;
}

NetworkState::CommitStats NetworkState::commit_swaps(
    const core::MaxMinBalancer& balancer, core::NodeId first,
    std::uint32_t round, std::uint32_t attempt, const RecheckFn& recheck,
    const ObserveFn& observe) {
  const PhaseStopwatch stopwatch(timers_.commit_ns);
  CommitStats stats;
  // Key packs (attempt, round) without collision: rounds is 32-bit.
  const std::uint64_t key = (static_cast<std::uint64_t>(attempt) << 32) | round;
  const std::size_t n = candidates_.size();
  require(first < n, "NetworkState::commit_swaps: first node out of range");
  // spend draws only at a fractional D, so at a whole D the swap's keyed
  // stream would go unread and is not derived.
  const bool draws = balancer.spend_draws();
  util::Rng commit_rng;
  for (std::size_t offset = 0; offset < n; ++offset) {
    const std::size_t at = first + offset;
    const auto x = static_cast<core::NodeId>(at < n ? at : at - n);
    if (!candidates_[x].has_value()) continue;
    const core::SwapCandidate& candidate = *candidates_[x];
    if (!recheck(x, candidate)) continue;
    if (draws) commit_rng = util::Rng::keyed(seed_, stream_tag::kSwap, key, x);
    const core::MaxMinBalancer::Execution execution = balancer.execute_swap(
        ledger_, x, candidate.left, candidate.right, commit_rng);
    ++stats.swaps;
    stats.pairs_consumed += execution.consumed_left + execution.consumed_right;
    ++stats.pairs_produced;
    if (observe) observe(CommittedSwap{x, candidate, execution});
  }
  return stats;
}

const DecayModel& NetworkState::decay() const {
  require(decay_.has_value(), "NetworkState: no decay model configured");
  return *decay_;
}

double NetworkState::fidelity_now(const TrackedPair& pair, double now) const {
  // The sharded slice kernels apply a whole slice's arrivals up front, so
  // an event earlier in the slice can observe a pair time-stamped after
  // it; such a pair simply has not decayed yet.
  const double elapsed = std::max(0.0, now - pair.created);
  return quantum::decohered_fidelity(pair.initial_fidelity, elapsed,
                                     decay().memory_time_constant);
}

void NetworkState::add_pair(core::NodeId x, core::NodeId y, double now,
                            double fidelity) {
  require(decay_.has_value(), "NetworkState::add_pair: decay tracking is off");
  pair_store_->bucket(x, y).push_back(TrackedPair{now, fidelity});
  ledger_.add(x, y, 1);
}

TrackedPair NetworkState::take_pair(core::NodeId x, core::NodeId y, double now,
                                    bool freshest) {
  std::vector<TrackedPair>* slot = pair_store_->find(x, y);
  ensure(slot != nullptr && !slot->empty(),
         "NetworkState::take_pair: bucket empty");
  std::vector<TrackedPair>& bucket = *slot;
  std::size_t chosen = 0;
  for (std::size_t i = 1; i < bucket.size(); ++i) {
    if (freshest ? fidelity_now(bucket[i], now) > fidelity_now(bucket[chosen], now)
                 : bucket[i].created < bucket[chosen].created) {
      chosen = i;
    }
  }
  const TrackedPair pair = bucket[chosen];
  bucket.erase(bucket.begin() + static_cast<long>(chosen));
  ledger_.remove(x, y, 1);
  return pair;
}

double NetworkState::best_fidelity(core::NodeId x, core::NodeId y,
                                   double now) const {
  const std::vector<TrackedPair>* bucket = pair_store_->find(x, y);
  if (bucket == nullptr) return 0.0;
  double best = 0.0;
  for (const TrackedPair& pair : *bucket) {
    best = std::max(best, fidelity_now(pair, now));
  }
  return best;
}

std::uint32_t NetworkState::drop_decayed(std::vector<TrackedPair>& bucket,
                                         double now) const {
  const double usable = decay().usable_fidelity;
  const auto kept = std::remove_if(
      bucket.begin(), bucket.end(),
      [&](const TrackedPair& pair) { return fidelity_now(pair, now) < usable; });
  const auto dropped = static_cast<std::uint32_t>(bucket.end() - kept);
  bucket.erase(kept, bucket.end());
  return dropped;
}

std::uint64_t NetworkState::purge_pair_type(core::NodeId x, core::NodeId y,
                                            double now) {
  std::vector<TrackedPair>* slot = pair_store_->find(x, y);
  if (slot == nullptr) return 0;
  const std::uint32_t dropped = drop_decayed(*slot, now);
  ledger_.remove(x, y, dropped);
  return dropped;
}

void NetworkState::decohere_chunk(std::size_t begin, std::size_t end) {
  // A bucket belongs to the chunk of its smaller endpoint; the live pairs
  // of a node come from its ledger partner row (read-only here), so the
  // scan touches exactly the live buckets — never n^2 of them. Buckets of
  // different chunks are disjoint, so compaction is race-free.
  std::vector<PurgeEntry>& drops = purge_entries_[begin / grain::kDecohere];
  drops.clear();
  for (auto x = static_cast<core::NodeId>(begin); x < end; ++x) {
    ledger_.row(x).for_each([&](core::NodeId y, std::uint32_t) {
      if (y <= x) return;  // owned by y's chunk when y < x
      std::vector<TrackedPair>* slot = pair_store_->find(x, y);
      if (slot == nullptr) return;
      const std::uint32_t dropped = drop_decayed(*slot, decohere_now_);
      if (dropped > 0) drops.push_back(PurgeEntry{x, y, dropped});
    });
  }
}

std::uint64_t NetworkState::decohere_all(double now) {
  require(decay_.has_value(), "NetworkState::decohere_all: decay tracking off");
  const PhaseStopwatch stopwatch(timers_.decohere_ns);
  // Phase 1 (chunked over nodes): the exp()-heavy fidelity scan; each
  // bucket compacts its own metadata vector, a bucket-local effect.
  decohere_now_ = now;
  pool_->run_chunks(graph_.node_count(), grain::kDecohere,
                    &timers_.decohere_load,
                    [this](std::size_t begin, std::size_t end, unsigned) {
                      decohere_chunk(begin, end);
                    });
  // Phase 2 (serial, canonical bucket order): ledger updates — buckets
  // sharing an endpoint touch the same partner row, so these stay on the
  // caller. Chunk ranges are contiguous ascending node ranges and each
  // chunk's drop list ascends in (x, y), so concatenating the lists in
  // chunk order replays exactly the ascending-(x, y) walk the dense
  // triangle produced — bit-identical remove sequence at every
  // threads setting.
  std::uint64_t total_dropped = 0;
  for (const std::vector<PurgeEntry>& drops : purge_entries_) {
    for (const PurgeEntry& entry : drops) {
      ledger_.remove(entry.x, entry.y, entry.dropped);
      total_dropped += entry.dropped;
    }
  }
  return total_dropped;
}

std::uint64_t NetworkState::memory_bytes() const {
  std::uint64_t bytes = ledger_.memory_bytes();
  // Per-node kernel scratch (the optional<SwapCandidate> table slot):
  // fixed logical bytes per node, plus one generation slot per edge.
  constexpr std::uint64_t kKernelPerNodeBytes = 16;
  bytes += kKernelPerNodeBytes * graph_.node_count();
  bytes += sizeof(std::uint32_t) *
           static_cast<std::uint64_t>(graph_.edge_count());
  if (pair_store_) bytes += pair_store_->memory_bytes();
  return bytes;
}

}  // namespace poq::sim
