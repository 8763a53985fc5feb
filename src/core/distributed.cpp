#include "core/distributed.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/maxmin_balancer.hpp"
#include "graph/shortest_path.hpp"
#include "net/message.hpp"
#include "sim/parallel_engine.hpp"
#include "sim/vertex_program.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace poq::core {

namespace {

using QubitId = std::uint64_t;
constexpr QubitId kDead = UINT64_MAX;
constexpr std::uint64_t kNever = UINT64_MAX;

/// Ground truth: qubits never move; entanglement is a symmetric partner
/// relation that swaps rewire and measurements sever.
class Truth {
 public:
  QubitId create(NodeId holder) {
    holders_.push_back(holder);
    partners_.push_back(kDead);
    return holders_.size() - 1;
  }

  void entangle(QubitId a, QubitId b) {
    partners_[a] = b;
    partners_[b] = a;
  }

  void measure(QubitId q) {
    if (partners_[q] != kDead) partners_[partners_[q]] = kDead;
    partners_[q] = kDead;
  }

  [[nodiscard]] QubitId partner(QubitId q) const { return partners_[q]; }
  [[nodiscard]] bool alive(QubitId q) const { return partners_[q] != kDead; }
  [[nodiscard]] NodeId holder(QubitId q) const { return holders_[q]; }

 private:
  std::vector<NodeId> holders_;
  std::vector<QubitId> partners_;
};

/// What one node believes about the qubits it holds.
struct Belief {
  NodeId partner_node = 0;
  QubitId partner_qubit = kDead;
};

class NodeState {
 public:
  explicit NodeState(std::size_t node_count) : by_partner_(node_count) {}

  void learn(QubitId qubit, NodeId partner_node, QubitId partner_qubit) {
    forget(qubit);
    beliefs_[qubit] = Belief{partner_node, partner_qubit};
    by_partner_[partner_node].push_back(qubit);
  }

  void forget(QubitId qubit) {
    const auto it = beliefs_.find(qubit);
    if (it == beliefs_.end()) return;
    auto& list = by_partner_[it->second.partner_node];
    list.erase(std::find(list.begin(), list.end(), qubit));
    beliefs_.erase(it);
  }

  [[nodiscard]] bool knows(QubitId qubit) const { return beliefs_.contains(qubit); }

  [[nodiscard]] const Belief* belief(QubitId qubit) const {
    const auto it = beliefs_.find(qubit);
    return it == beliefs_.end() ? nullptr : &it->second;
  }

  /// Believed count of pairs shared with `partner`, excluding `locked`.
  [[nodiscard]] std::uint32_t count(NodeId partner, QubitId locked) const {
    const auto& list = by_partner_[partner];
    auto size = static_cast<std::uint32_t>(list.size());
    if (locked != kDead &&
        std::find(list.begin(), list.end(), locked) != list.end()) {
      --size;
    }
    return size;
  }

  /// First believed qubit toward `partner` that is not `locked`.
  [[nodiscard]] QubitId pick(NodeId partner, QubitId locked) const {
    for (QubitId q : by_partner_[partner]) {
      if (q != locked) return q;
    }
    return kDead;
  }

  /// Every qubit this node believes it holds, ascending (canonical order
  /// for the crash purge, independent of the hash map's iteration order).
  [[nodiscard]] std::vector<QubitId> believed_qubits() const {
    std::vector<QubitId> result;
    result.reserve(beliefs_.size());
    for (const auto& [qubit, belief] : beliefs_) result.push_back(qubit);
    std::sort(result.begin(), result.end());
    return result;
  }

  /// Partners with at least one believed pair (ascending).
  [[nodiscard]] std::vector<NodeId> partners(QubitId locked) const {
    std::vector<NodeId> result;
    for (NodeId y = 0; y < by_partner_.size(); ++y) {
      if (count(y, locked) > 0) result.push_back(y);
    }
    return result;
  }

 private:
  std::unordered_map<QubitId, Belief> beliefs_;
  std::vector<std::vector<QubitId>> by_partner_;
};

/// One node's sparse view of other nodes' count rows: only the entries
/// some reporter actually messaged, instead of the former dense
/// n-squared matrix per node.
struct ViewState {
  /// (reporter << 32 | peer) -> last reported count (zeros erased).
  std::unordered_map<std::uint64_t, std::uint32_t> count;
  /// reporter -> send time of its freshest report.
  std::unordered_map<NodeId, double> time;

  [[nodiscard]] static std::uint64_t key(NodeId reporter, NodeId peer) {
    return (static_cast<std::uint64_t>(reporter) << 32) | peer;
  }
  [[nodiscard]] std::uint32_t count_of(NodeId reporter, NodeId peer) const {
    const auto it = count.find(key(reporter, peer));
    return it == count.end() ? 0 : it->second;
  }
  [[nodiscard]] double time_of(NodeId reporter) const {
    const auto it = time.find(reporter);
    return it == time.end() ? 0.0 : it->second;
  }
};

/// A node's swap decision (the §4 rule evaluated against its beliefs and
/// views), recomputed at every scan.
struct Candidate {
  NodeId left = 0;
  NodeId right = 0;
  QubitId q1 = kDead;
  QubitId q2 = kDead;
  double vt_left = 0.0;
  double vt_right = 0.0;
};

/// One node's report sends in this epoch's decide kernel, summed into
/// the control-plane totals in node order after the kernel.
struct ReportCost {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

/// The vertex-program driver. Each epoch of length dt runs:
///   1. deliver + parallel apply kernel (views, pair repointing; consume
///      handshake messages deferred to the serial phase),
///   2. serial consume resolution,
///   3. serial ground-truth generation,
///   4. parallel report/decide kernel over all nodes,
///   5. serial swap-commit walk in canonical rotating order — a node
///      whose readable state changed earlier in the walk re-scans live,
///      replicating "a scan at time t sees all earlier events",
///   6. the head consumer's periodic offer.
/// Sub-epoch message latencies (delay rounds to 0 epochs) are applied
/// inline by the serial phases; everything else is mailed through the
/// VertexProgram with its canonical merge order.
class Driver {
 public:
  Driver(const graph::Graph& graph, const Workload& workload,
         const DistributedConfig& config)
      : graph_(graph),
        workload_(workload),
        config_(config),
        n_(static_cast<NodeId>(graph.node_count())),
        distances_(graph::all_pairs_distances(graph)),
        nodes_(n_, NodeState(n_)),
        views_(n_),
        last_reported_(n_),
        candidates_(n_),
        scanned_(n_, 0),
        mutated_epoch_(n_, kNever),
        pool_(config.tick.threads),
        vp_(n_, pool_),
        report_cost_(n_) {
    if (config.faults.enabled()) {
      fault_plan_ =
          std::make_unique<sim::FaultPlan>(graph, config.faults, config.seed);
    }
  }

  DistributedResult run() {
    const auto epochs =
        static_cast<std::uint64_t>(std::ceil(config_.duration / config_.dt));
    const auto retry_epochs = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::llround(config_.consume_retry_interval / config_.dt)));
    for (std::uint64_t epoch = 0; epoch < epochs; ++epoch) {
      util::this_thread_check_cancelled();
      epoch_ = epoch;
      now_ = static_cast<double>(epoch + 1) * config_.dt;
      fault_phase();
      apply_phase();
      resolve_consume();
      generate();
      report_and_decide();
      commit();
      if (epoch % retry_epochs == 0) try_offer();
    }
    if (fault_plan_) result_.faults = fault_plan_->stats();
    return std::move(result_);
  }

 private:
  using Program = sim::VertexProgram<net::Message>;

  [[nodiscard]] std::uint64_t delay_epochs(NodeId a, NodeId b) const {
    const double latency =
        config_.latency_per_hop * static_cast<double>(distances_[a][b]);
    return static_cast<std::uint64_t>(std::floor(latency / config_.dt + 0.5));
  }

  void account_serial(const net::Message& message) {
    ++result_.control_messages;
    result_.control_bytes += net::encoded_size(message);
  }

  /// A serial mutation of `v` after this epoch's decide kernel: the
  /// commit walk re-scans `v` live.
  void mark_serial(NodeId v) { mutated_epoch_[v] = epoch_; }

  // --- phase 0: fault injection (serial) ------------------------------

  void fault_phase() {
    if (!fault_plan_) return;
    const std::vector<NodeId>& crashed = fault_plan_->advance(epoch_, now_);
    for (const NodeId x : crashed) purge_crashed(x);
  }

  /// Crash purge: measure every qubit x holds. Heralded loss — the *true*
  /// far endpoint's holder (not the possibly stale believed partner)
  /// forgets its half through the reliable control plane, preserving the
  /// invariant that believed unlocked qubits are truth-alive. Both ends
  /// are marked serial so this epoch's commit walk re-scans them.
  void purge_crashed(NodeId x) {
    const std::vector<QubitId> qubits = nodes_[x].believed_qubits();
    for (const QubitId q : qubits) {
      if (!truth_.alive(q)) {
        // A locked qubit already measured by the responder's accept, or
        // the far half of a pair whose near half this loop purged first.
        nodes_[x].forget(q);
        continue;
      }
      const QubitId far = truth_.partner(q);
      const NodeId far_holder = truth_.holder(far);
      truth_.measure(q);  // severs both ends
      nodes_[x].forget(q);
      if (nodes_[far_holder].knows(far)) nodes_[far_holder].forget(far);
      mark_serial(far_holder);
      fault_plan_->record_purged(1);
    }
    mark_serial(x);
  }

  // --- phase 1: deliver + apply ---------------------------------------

  void apply_phase() {
    const std::vector<std::uint32_t>& active = vp_.deliver(epoch_);
    vp_.run_kernel(active.size(), sim::grain::kBelief, nullptr,
                   [&](std::size_t begin, std::size_t end, Program::Context&) {
      for (std::size_t i = begin; i < end; ++i) {
        const NodeId x = active[i];
        for (const net::Message& message : vp_.inbox(x)) {
          if (const auto* counts = std::get_if<net::CountUpdate>(&message)) {
            apply_count_update(x, *counts);
          } else if (const auto* pair = std::get_if<net::PairUpdate>(&message)) {
            // Obsolete if the recipient already measured this qubit itself.
            if (nodes_[x].knows(pair->qubit)) {
              nodes_[x].learn(pair->qubit, pair->new_partner,
                              pair->new_partner_qubit);
            }
          }
          // Consume handshakes touch the global head-of-line state, so
          // resolve_consume applies them serially.
        }
      }
    });
  }

  void apply_count_update(NodeId x, const net::CountUpdate& update) {
    ViewState& view = views_[x];
    for (const net::CountUpdate::Entry& entry : update.entries) {
      const std::uint64_t key = ViewState::key(update.reporter, entry.peer);
      if (entry.count == 0) {
        view.count.erase(key);
      } else {
        view.count[key] = entry.count;
      }
    }
    view.time[update.reporter] =
        static_cast<double>(update.version + 1) * config_.dt;
  }

  // --- phase 2: consume handshake (serial) ----------------------------

  /// Walks this epoch's inboxes again in canonical (target, inbox)
  /// order; the apply kernel left the consume handshakes to this phase.
  void resolve_consume() {
    for (const std::uint32_t x : vp_.active()) {
      for (const net::Message& message : vp_.inbox(x)) {
        if (const auto* offer = std::get_if<net::ConsumeOffer>(&message)) {
          handle_offer(*offer);
        } else if (const auto* reply = std::get_if<net::ConsumeReply>(&message)) {
          handle_reply(*reply);
        }
      }
    }
  }

  void handle_offer(const net::ConsumeOffer& offer) {
    NodeState& responder = nodes_[offer.to];
    net::ConsumeReply reply;
    reply.from = offer.to;
    reply.to = offer.from;
    reply.request_id = offer.request_id;
    const bool valid =
        responder.knows(offer.responder_qubit) &&
        truth_.alive(offer.responder_qubit) &&
        truth_.partner(offer.responder_qubit) == offer.initiator_qubit;
    reply.accept = valid;
    if (valid) {
      responder.forget(offer.responder_qubit);
      truth_.measure(offer.responder_qubit);  // severs both ends
      mark_serial(offer.to);
    }
    account_serial(reply);
    const std::uint64_t delay = delay_epochs(offer.to, offer.from);
    if (delay == 0) {
      handle_reply(reply);
    } else {
      vp_.send(reply.to, delay, reply);
    }
  }

  void handle_reply(const net::ConsumeReply& reply) {
    offer_in_flight_ = false;
    NodeState& initiator = nodes_[reply.to];
    mark_serial(reply.to);  // the lock (and possibly beliefs) changed
    if (reply.accept) {
      // Responder measured its half at accept time; finish locally.
      truth_.measure(offered_qubit_);
      initiator.forget(offered_qubit_);
      offered_qubit_ = kDead;
      ++result_.requests_satisfied;
      if (fault_plan_) fault_plan_->record_delivery(now_);
      result_.request_latency.add(now_ - head_since_);
      ++head_;
      head_since_ = now_;
      return;
    }
    // Conflict: our belief was stale; the pending PairUpdate will repair
    // it. Unlock the qubit and let the retry timer try again.
    ++result_.consume_conflicts;
    offered_qubit_ = kDead;
  }

  void try_offer() {
    if (offer_in_flight_ || head_ >= workload_.request_count()) return;
    const NodePair& request = workload_.request(head_);
    NodeState& initiator = nodes_[request.first];
    const QubitId qubit = initiator.pick(request.second, kDead);
    if (qubit == kDead) return;  // nothing believed toward the partner yet
    const Belief* belief = initiator.belief(qubit);
    net::ConsumeOffer offer;
    offer.from = request.first;
    offer.to = request.second;
    offer.request_id = head_;
    offer.initiator_qubit = qubit;
    offer.responder_qubit = belief->partner_qubit;
    offered_qubit_ = qubit;
    offer_in_flight_ = true;
    account_serial(offer);
    const std::uint64_t delay = delay_epochs(offer.from, offer.to);
    if (delay == 0) {
      handle_offer(offer);
    } else {
      vp_.send(offer.to, delay, offer);
    }
  }

  // --- phase 3: generation (serial, ground truth) ---------------------

  void generate() {
    const auto& edges = graph_.edges();
    // Batched per-edge draw (bit-identical to the scalar keyed + poisson
    // loop; the sponge prefix is hoisted once per epoch). Under faults the
    // rate scales by the degradation factor and downed edges drop their
    // draw (per-edge keyed streams: no other edge's stream shifts).
    const double rate = config_.generation_rate * config_.dt *
                        (fault_plan_ ? fault_plan_->rate_factor() : 1.0);
    const bool masked = fault_plan_ && fault_plan_->any_edge_down();
    born_scratch_.resize(edges.size());
    util::Rng::poisson_batch(config_.seed, sim::stream_tag::kGeneration,
                             epoch_, 0, rate, born_scratch_);
    for (std::size_t index = 0; index < edges.size(); ++index) {
      if (masked && !fault_plan_->edge_up(index)) continue;
      const std::uint64_t born = born_scratch_[index];
      for (std::uint64_t k = 0; k < born; ++k) {
        const graph::Edge& edge = edges[index];
        const QubitId qa = truth_.create(edge.a());
        const QubitId qb = truth_.create(edge.b());
        truth_.entangle(qa, qb);
        nodes_[edge.a()].learn(qa, edge.b(), qb);
        nodes_[edge.b()].learn(qb, edge.a(), qa);
        ++result_.pairs_generated;
      }
    }
  }

  // --- phase 4: report + decide (parallel kernel) ---------------------

  void report_and_decide() {
    vp_.run_kernel(n_, sim::grain::kBelief, nullptr,
                   [&](std::size_t begin, std::size_t end,
                       Program::Context& ctx) {
      for (NodeId x = static_cast<NodeId>(begin); x < end; ++x) {
        scanned_[x] = 0;
        report_cost_[x] = ReportCost{};
        // A crashed node neither reports nor scans; its streams are keyed
        // per (epoch, node), so skipping shifts nothing else. The masks
        // only change in the serial fault phase, so the kernel reads a
        // frozen plan.
        if (fault_plan_ && !fault_plan_->node_up(x)) continue;
        util::Rng report_rng =
            util::Rng::keyed(config_.seed, sim::stream_tag::kReport, epoch_, x);
        if (report_rng.poisson(config_.report_rate * config_.dt) > 0) {
          send_report(x, ctx);
        }
        util::Rng scan_rng =
            util::Rng::keyed(config_.seed, sim::stream_tag::kScan, epoch_, x);
        if (scan_rng.poisson(config_.scan_rate * config_.dt) > 0) {
          scanned_[x] = 1;
          candidates_[x] = compute_candidate(x);
        }
      }
    });
    for (const ReportCost& cost : report_cost_) {
      result_.control_messages += cost.messages;
      result_.control_bytes += cost.bytes;
    }
  }

  /// Report x's count row to its current believed partners. Entries are
  /// the union of the currently nonzero peers and the peers of the last
  /// report (so a count that dropped to zero decays at its readers);
  /// everything is sparse — cost is O(partners), not O(n).
  void send_report(NodeId x, Program::Context& ctx) {
    const std::vector<NodeId> current = nodes_[x].partners(offered_qubit_);
    net::CountUpdate update;
    update.reporter = x;
    update.version = epoch_;
    const std::vector<NodeId>& previous = last_reported_[x];
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < current.size() || j < previous.size()) {
      NodeId peer;
      if (j >= previous.size() || (i < current.size() && current[i] <= previous[j])) {
        if (j < previous.size() && previous[j] == current[i]) ++j;
        peer = current[i++];
      } else {
        peer = previous[j++];
      }
      update.entries.push_back(
          net::CountUpdate::Entry{peer, nodes_[x].count(peer, offered_qubit_)});
    }
    last_reported_[x] = current;
    if (current.empty()) return;  // nobody reads this row any more
    const std::uint64_t bytes = net::encoded_size(update);
    ReportCost& cost = report_cost_[x];
    for (const NodeId target : current) {
      ++cost.messages;
      cost.bytes += bytes;
      ctx.send(target, delay_epochs(x, target), update);
    }
  }

  /// The §4 swap rule (MaxMinBalancer's scan at D = 1) on believed own
  /// counts and viewed beneficiary counts: a partner is eligible with
  /// believed count c >= 2, room c - 1, and C_a(b) is read from the
  /// fresher of a's and b's reports.
  [[nodiscard]] std::optional<Candidate> compute_candidate(NodeId x) const {
    const QubitId locked = offered_qubit_;
    const ViewState& view = views_[x];
    std::vector<MaxMinBalancer::Eligible> eligible;
    for (NodeId y = 0; y < n_; ++y) {
      const std::uint32_t count = nodes_[x].count(y, locked);
      if (count >= 2) eligible.push_back({y, count - 1});
    }
    const std::optional<SwapCandidate> best =
        rule_.scan_pairs(x, eligible, [&view](NodeId a) {
          return [&view, a](NodeId b) {
            return view.time_of(a) >= view.time_of(b) ? view.count_of(a, b)
                                                      : view.count_of(b, a);
          };
        });
    if (!best) return std::nullopt;
    Candidate candidate;
    candidate.left = best->left;
    candidate.right = best->right;
    candidate.q1 = nodes_[x].pick(best->left, locked);
    candidate.q2 = nodes_[x].pick(best->right, locked);
    ensure(candidate.q1 != kDead && candidate.q2 != kDead,
           "distributed: belief lists corrupt");
    candidate.vt_left = view.time_of(best->left);
    candidate.vt_right = view.time_of(best->right);
    return candidate;
  }

  // --- phase 5: swap commit (serial, canonical rotating order) --------

  void commit() {
    const auto first = static_cast<NodeId>(epoch_ % n_);
    for (NodeId offset = 0; offset < n_; ++offset) {
      const NodeId x = (first + offset) % n_;
      if (scanned_[x] == 0) continue;
      std::optional<Candidate> candidate = candidates_[x];
      if (mutated_epoch_[x] == epoch_) {
        // x's readable state changed after the decide kernel (an earlier
        // commit in this walk, or this epoch's consume resolution): its
        // scan happens live, seeing all earlier events of the epoch.
        candidate = compute_candidate(x);
      }
      if (!candidate.has_value()) continue;
      execute_swap(x, *candidate);
    }
  }

  void execute_swap(NodeId x, const Candidate& candidate) {
    // Physics: measure both local qubits; their true far partners become
    // entangled with each other, whatever the beliefs said. (Believed
    // unlocked qubits are always truth-alive: measurement is only ever
    // performed by a qubit's own holder, which forgets it on the spot.)
    const QubitId far1 = truth_.partner(candidate.q1);
    const QubitId far2 = truth_.partner(candidate.q2);
    truth_.measure(candidate.q1);
    truth_.measure(candidate.q2);
    truth_.entangle(far1, far2);
    nodes_[x].forget(candidate.q1);
    nodes_[x].forget(candidate.q2);
    mark_serial(x);
    ++result_.swaps;
    const NodeId actual_u = truth_.holder(far1);
    const NodeId actual_v = truth_.holder(far2);
    if (NodePair(actual_u, actual_v) != NodePair(candidate.left, candidate.right)) {
      ++result_.stale_swaps;
    }
    result_.decision_view_age.add(
        now_ - std::max(candidate.vt_left, candidate.vt_right));
    // Notify the true endpoints, with the 2 classical bits (Fig. 2).
    util::Rng bits =
        util::Rng::keyed(config_.seed, sim::stream_tag::kSwapBits, epoch_, x);
    for (const auto& [endpoint, qubit, partner_node, partner_qubit] :
         {std::tuple{actual_u, far1, actual_v, far2},
          std::tuple{actual_v, far2, actual_u, far1}}) {
      net::PairUpdate update;
      update.to = endpoint;
      update.new_partner = partner_node;
      update.qubit = qubit;
      update.new_partner_qubit = partner_qubit;
      update.z_bit = bits.bernoulli(0.5);
      update.x_bit = bits.bernoulli(0.5);
      account_serial(update);
      const std::uint64_t delay = delay_epochs(x, endpoint);
      if (delay == 0) {
        // Sub-epoch latency: the repointing lands within this epoch, so
        // later nodes in the walk (and this epoch's consume) see it.
        if (nodes_[endpoint].knows(update.qubit)) {
          nodes_[endpoint].learn(update.qubit, update.new_partner,
                                 update.new_partner_qubit);
          mark_serial(endpoint);
        }
      } else {
        vp_.send(endpoint, delay, update);
      }
    }
  }

  const graph::Graph& graph_;
  const Workload& workload_;
  const DistributedConfig& config_;
  NodeId n_;
  std::vector<std::vector<std::uint32_t>> distances_;
  /// The §4 rule at D = 1 (every believed pair is one raw pair).
  const MaxMinBalancer rule_{1.0};

  Truth truth_;
  std::vector<NodeState> nodes_;
  std::vector<ViewState> views_;
  /// Peers with nonzero counts in each node's last report (ascending).
  std::vector<std::vector<NodeId>> last_reported_;
  std::vector<std::optional<Candidate>> candidates_;
  std::vector<std::uint8_t> scanned_;
  /// Last epoch whose serial phases mutated the node after decide.
  std::vector<std::uint64_t> mutated_epoch_;

  sim::ParallelTickEngine pool_;
  Program vp_;
  std::vector<ReportCost> report_cost_;

  // Consumption handshake state (head-of-line, so at most one in flight).
  std::size_t head_ = 0;
  double head_since_ = 0.0;
  QubitId offered_qubit_ = kDead;  // initiator's locked qubit
  bool offer_in_flight_ = false;

  std::uint64_t epoch_ = 0;
  double now_ = 0.0;
  /// Per-edge generation draws (resized once, reused every epoch).
  std::vector<std::uint64_t> born_scratch_;
  // Fault phase state (non-null only when config.faults.enabled()).
  std::unique_ptr<sim::FaultPlan> fault_plan_;
  DistributedResult result_;
};

}  // namespace

DistributedResult run_distributed(const graph::Graph& generation_graph,
                                  const Workload& workload,
                                  const DistributedConfig& config) {
  const auto n = static_cast<NodeId>(generation_graph.node_count());
  require(n >= 3, "run_distributed: need at least 3 nodes");
  require(config.latency_per_hop >= 0.0, "run_distributed: negative latency");
  require(config.dt > 0.0, "run_distributed: dt must be positive");
  require(std::isfinite(config.duration) && config.duration > 0.0,
          "run_distributed: duration must be finite and positive");
  const auto require_rate = [](double rate, const char* knob) {
    require(std::isfinite(rate) && rate >= 0.0,
            util::str_cat("run_distributed: knob '", knob,
                          "' must be finite and >= 0, got ", rate));
  };
  require_rate(config.report_rate, "report-rate");
  require_rate(config.scan_rate, "scan-rate");
  require_rate(config.generation_rate, "generation-rate");
  return Driver(generation_graph, workload, config).run();
}

}  // namespace poq::core
