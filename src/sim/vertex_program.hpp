// Message-driven vertex-program substrate.
//
// The phase-kernel protocols share state through the PairLedger; the
// control-plane protocols (distributed, async_routing) share nothing —
// each node owns local state, learns about the rest of the network only
// through typed messages, and acts on what it has learned.
// VertexProgram is the substrate for that second family, in the
// apply/scatter shape of GraphLab-style vertex programs:
//
//   * nodes hold local state (owned by the driver, one slot per vertex);
//   * an *apply* kernel consumes each vertex's inbox and may mutate only
//     that vertex's state;
//   * sends go through per-chunk outboxes; the driver recomputes every
//     decision from the vertex's current state.
//
// Time advances in epochs (fixed dt chosen by the driver). Within an
// epoch the driver alternates parallel kernels (fanned across the
// ParallelTickEngine worker pool) with serial canonical phases that may
// touch shared state (ground-truth physics, the ledger).
//
// Determinism contract — canonical message merge: every message has a
// canonical position (deliver epoch, send phase, sender, per-sender send
// index), independent of the threads setting:
//   * run_kernel splits an ascending entity list into the engine's
//     canonical contiguous chunks and hands each chunk its own context,
//     so concatenating the per-chunk outboxes in ascending chunk order
//     yields ascending-sender, program-send-order — the same sequence for
//     every grain (seal() per kernel keeps different kernels' sends from
//     interleaving chunk-wise);
//   * serial-phase sends append after the epoch's sealed kernels in call
//     order, which is itself canonical;
//   * delivery walks the due queue in that canonical order, so each
//     target's inbox is folded in a fixed sequence however many workers
//     carried the messages.
// With all randomness drawn from counter-based keyed streams
// (util::Rng::keyed per (tag, epoch, entity)), a vertex program's results
// are bit-identical for every threads setting; a 1-thread pool
// runs the same chunks inline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "sim/parallel_engine.hpp"
#include "util/error.hpp"

namespace poq::sim {

/// Typed message substrate for one vertex program. `Message` is the
/// driver's payload type (a struct or a std::variant for multi-kind
/// protocols). The driver owns the per-vertex state and the epoch loop;
/// VertexProgram owns delivery and the canonical merge.
template <typename Message>
class VertexProgram {
 public:
  /// Per-chunk send surface handed to parallel kernels. Sends are
  /// buffered per chunk and merged canonically at seal().
  class Context {
   public:
    /// Queue `payload` for `target`, `delay_epochs` epochs from now.
    /// Parallel kernels cannot deliver into the epoch they run in, so the
    /// delay is clamped to >= 1; sub-epoch latencies are the driver's
    /// serial phase's business.
    void send(std::uint32_t target, std::uint64_t delay_epochs,
              Message payload) {
      outbox_.push_back(Pending{std::max<std::uint64_t>(1, delay_epochs),
                                target, std::move(payload)});
    }

   private:
    friend class VertexProgram;
    struct Pending {
      std::uint64_t delay = 1;
      std::uint32_t target = 0;
      Message payload;
    };
    std::vector<Pending> outbox_;
  };

  VertexProgram(std::size_t vertex_count, ParallelTickEngine& pool)
      : vertex_count_(vertex_count), pool_(pool), inboxes_(vertex_count) {}

  [[nodiscard]] std::size_t vertex_count() const { return vertex_count_; }
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_sent_; }
  [[nodiscard]] std::uint64_t messages_delivered() const {
    return messages_delivered_;
  }

  /// Move the messages due at `epoch` into per-target inboxes, folding
  /// each inbox in canonical order, and return the targets with non-empty
  /// inboxes (ascending). Serial; call once per epoch, before kernels.
  const std::vector<std::uint32_t>& deliver(std::uint64_t epoch) {
    epoch_ = epoch;
    for (const std::uint32_t target : active_) inboxes_[target].clear();
    active_.clear();
    const auto due = pending_.find(epoch);
    if (due == pending_.end()) return active_;
    for (Envelope& envelope : due->second) {
      if (inboxes_[envelope.target].empty()) active_.push_back(envelope.target);
      inboxes_[envelope.target].push_back(std::move(envelope.payload));
      ++messages_delivered_;
    }
    pending_.erase(due);
    std::sort(active_.begin(), active_.end());
    return active_;
  }

  /// The targets returned by the last deliver() (ascending).
  [[nodiscard]] const std::vector<std::uint32_t>& active() const {
    return active_;
  }

  /// This epoch's inbox of `target`, in canonical merge order.
  [[nodiscard]] std::span<const Message> inbox(std::uint32_t target) const {
    return inboxes_[target];
  }

  /// Run `kernel(begin, end, context)` over [0, items) in the engine's
  /// canonical chunks of `grain` entities, fanned across the pool, each
  /// chunk with its own context; the kernel walks its ascending slice of
  /// the caller's entity list; `load` (may be null) records the chunks as
  /// in run_chunks.
  /// seal() then merges the contexts in ascending chunk order, which is
  /// what makes the merge canonical.
  template <typename Kernel>
  void run_kernel(std::size_t items, std::size_t grain, ChunkLoad* load,
                  Kernel&& kernel) {
    if (items == 0) return;
    const std::size_t chunks = (items + grain - 1) / grain;
    if (contexts_.size() < chunks) contexts_.resize(chunks);
    pool_.run_chunks(items, grain, load,
                     [this, grain, &kernel](std::size_t begin, std::size_t end,
                                            unsigned) {
                       kernel(begin, end, contexts_[begin / grain]);
                     });
    seal();
  }

  /// Serial-phase send: appends after everything the epoch's sealed
  /// kernels queued, in call order (canonical by construction).
  /// `delay_epochs` must be >= 1 — a serial phase applies sub-epoch
  /// effects itself instead of mailing them.
  void send(std::uint32_t target, std::uint64_t delay_epochs, Message payload) {
    require(delay_epochs >= 1,
            "VertexProgram::send: serial sends deliver next epoch at the "
            "earliest (apply sub-epoch effects directly)");
    pending_[epoch_ + delay_epochs].push_back(
        Envelope{target, std::move(payload)});
    ++messages_sent_;
  }

  /// Whether any message is still queued for a future epoch.
  [[nodiscard]] bool idle() const { return pending_.empty(); }

 private:
  struct Envelope {
    std::uint32_t target = 0;
    Message payload;
  };

  /// Merge the per-chunk outboxes into the pending queue in canonical
  /// order: chunk 0..C-1 concatenation == ascending-sender program order
  /// for every grain, because each chunk walks an ascending contiguous
  /// entity slice. Contexts past the last kernel's chunk count hold
  /// empty outboxes.
  void seal() {
    for (Context& context : contexts_) {
      for (typename Context::Pending& pending : context.outbox_) {
        pending_[epoch_ + pending.delay].push_back(
            Envelope{pending.target, std::move(pending.payload)});
        ++messages_sent_;
      }
      context.outbox_.clear();
    }
  }

  std::size_t vertex_count_;
  ParallelTickEngine& pool_;
  std::vector<Context> contexts_;
  std::uint64_t epoch_ = 0;
  /// deliver_epoch -> envelopes in canonical order. Keyed lookups only;
  /// the map's iteration order is never observed beyond the due bucket.
  std::map<std::uint64_t, std::vector<Envelope>> pending_;
  std::vector<std::vector<Message>> inboxes_;
  std::vector<std::uint32_t> active_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_delivered_ = 0;
};

}  // namespace poq::sim
