// Intra-run parallel tick engine.
//
// The round-based simulators decompose each tick into phases whose work
// factors over independent entities (generation over edges, swap decisions
// over nodes). ParallelTickEngine is the worker pool that executes such a
// phase: run_chunks splits the entity range into canonical fixed-grain
// chunks and the pool's threads claim them off an atomic cursor, blocking
// until every chunk has finished. It is the only tick engine and
// run_chunks its only dispatch: every simulating protocol runs its
// parallel kernels through it, so one thread is just the smallest pool,
// not a separate code path.
//
// Determinism contract (leaned on by the parallel_determinism test suite
// and the BENCH_parallel_scaling gate): the engine itself never introduces
// nondeterminism. Chunk boundaries depend only on (items, grain),
// randomness comes from counter-based streams keyed per entity
// (util::Rng::keyed), and callers merge per-chunk effects in ascending
// chunk order — so a run's results are bit-identical for every thread
// count. Threads are a pure performance knob; each kernel's chunk grain
// is a constant (sim::grain), not a knob.
//
// The pool threads are created once and parked on a condition variable
// between phases, so driving ~10^4 rounds × 2 phases through the engine
// costs two notify/wait handshakes per phase, not two thread spawns. With
// one thread (or one chunk) the engine runs inline on the caller with no
// synchronization at all.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace poq::sim {

/// Stream tags for the counter-based RNG keying used by the phase kernels:
/// util::Rng::keyed(seed, tag, round, entity). Distinct tags keep phase
/// streams decorrelated however rounds and entity ids collide.
namespace stream_tag {
inline constexpr std::uint64_t kGeneration = 0x67656E65726174ULL;  // "generat"
inline constexpr std::uint64_t kSwap = 0x73776170ULL;              // "swap"
inline constexpr std::uint64_t kGossip = 0x676F73736970ULL;        // "gossip"
inline constexpr std::uint64_t kEventTimes = 0x6576656E74ULL;      // "event"
inline constexpr std::uint64_t kEventDraw = 0x64726177ULL;         // "draw"
// Vertex-program epochs (distributed, async_routing): per-(epoch, node)
// scan/report schedules, per-(epoch, node) swap correction bits, and the
// per-epoch request arrival stream.
inline constexpr std::uint64_t kScan = 0x7363616EULL;      // "scan"
inline constexpr std::uint64_t kReport = 0x7265706F7274ULL;  // "report"
inline constexpr std::uint64_t kSwapBits = 0x73626974ULL;  // "sbit"
inline constexpr std::uint64_t kArrival = 0x61727276ULL;   // "arrv"
// Streaming consumption workload (balancing family): the per-round
// request-arrival draw keyed (seed, tag, round, 0), and the lazy
// consumer-pool pair derivation keyed (seed, tag, pool index, 0) — the
// pool itself is never materialized.
inline constexpr std::uint64_t kConsumerArrival = 0x63617272ULL;  // "carr"
inline constexpr std::uint64_t kConsumerPair = 0x63706169ULL;     // "cpai"
// Fault-injection phase (sim::FaultPlan): per-(round, node) crash/recover
// transitions, per-(round, edge) link down/up transitions, and the
// per-round generation-rate degradation draw. Serial phase — the keying
// only guarantees the streams stay decorrelated from every kernel above.
inline constexpr std::uint64_t kFaultNode = 0x666C746EULL;  // "fltn"
inline constexpr std::uint64_t kFaultLink = 0x666C746CULL;  // "fltl"
inline constexpr std::uint64_t kFaultRate = 0x666C7472ULL;  // "fltr"
}  // namespace stream_tag

/// Chunk grains (entities per chunk) each kernel passes to
/// ParallelTickEngine::run_chunks, tuned for
/// cheap-per-entity generation draws vs the partner-scan-heavy decides,
/// the exp()-heavy decohere sweep and distributed's belief kernels
/// (view maps, report building). Pure performance constants — never
/// part of the determinism contract.
namespace grain {
inline constexpr std::size_t kGenerate = 2048;  // per-edge generation
inline constexpr std::size_t kDecide = 64;      // per-node §4 row scan
inline constexpr std::size_t kDecohere = 256;   // per-node bucket sweep
inline constexpr std::size_t kBelief = 4;       // per-node belief kernels
}  // namespace grain

/// The intra-run concurrency knob every simulating protocol carries.
struct TickConcurrency {
  /// Worker threads for the tick engine (0 = hardware). Never affects
  /// results.
  std::uint32_t threads = 1;
};

/// Per-phase chunk-load accounting from the dynamic chunk scheduler,
/// cumulative over a run but measured per dispatch: each run_chunks call
/// d adds its slowest chunk times its chunk count (max_d * chunks_d) to
/// weighted_max_ns and its chunk wall-clock to total_ns. The ratio
/// sum_d(max_d * chunks_d) / sum_d(total_d) is the scheduler's
/// load-imbalance signal (1.0 = every dispatch's chunks were even; a
/// slow dispatch next to a fast one is not imbalance), surfaced as the
/// shard_imbalance timings. Observability only — never part of the
/// determinism contract.
struct ChunkLoad {
  std::uint64_t weighted_max_ns = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t chunks = 0;
  /// Max-over-mean chunk time, weighted over dispatches by their chunk
  /// time (0 when the phase never dispatched chunks).
  [[nodiscard]] double imbalance() const {
    if (chunks == 0 || total_ns == 0) return 0.0;
    return static_cast<double>(weighted_max_ns) /
           static_cast<double>(total_ns);
  }
};

/// Cumulative wall-clock nanoseconds spent in each phase kernel of one
/// run. Pure observability: timings ride along in RunMetrics/BENCH JSON
/// but are explicitly outside the determinism contract (like wall_ms) and
/// are never compared by the regression gates.
struct PhaseTimers {
  std::uint64_t generate_ns = 0;
  std::uint64_t decide_ns = 0;
  std::uint64_t commit_ns = 0;
  std::uint64_t decohere_ns = 0;
  /// Protocol-specific serial phases: gossip's count-report send + merge,
  /// and hybrid's entanglement-path assist.
  std::uint64_t exchange_ns = 0;
  std::uint64_t assist_ns = 0;
  ChunkLoad generate_load;
  ChunkLoad decide_load;
  ChunkLoad decohere_load;
};

/// RAII accumulator for one PhaseTimers field: adds the scope's elapsed
/// wall-clock on destruction. The single timing implementation for every
/// phase accounting site (NetworkState kernels, the fidelity slice
/// kernels).
class PhaseStopwatch {
 public:
  explicit PhaseStopwatch(std::uint64_t& sink)
      : sink_(sink), start_(std::chrono::steady_clock::now()) {}
  ~PhaseStopwatch() {
    sink_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }
  PhaseStopwatch(const PhaseStopwatch&) = delete;
  PhaseStopwatch& operator=(const PhaseStopwatch&) = delete;

 private:
  std::uint64_t& sink_;
  std::chrono::steady_clock::time_point start_;
};

class ParallelTickEngine {
 public:
  /// `threads` = worker threads the engine may use, caller included;
  /// 0 = hardware concurrency. The pool spawns threads-1 workers.
  explicit ParallelTickEngine(unsigned threads = 0);
  ~ParallelTickEngine();

  ParallelTickEngine(const ParallelTickEngine&) = delete;
  ParallelTickEngine& operator=(const ParallelTickEngine&) = delete;

  [[nodiscard]] unsigned thread_count() const { return threads_; }

  /// Chunked dynamic scheduling (deterministic work stealing): split
  /// [0, items) into canonical contiguous chunks of `grain` entities
  /// (the last chunk may be short) and run
  /// `chunk_fn(begin, end, worker)` for each, with chunks claimed off an
  /// atomic cursor by whichever worker is free. Chunk boundaries depend
  /// only on (items, grain) — never on the thread count or the claiming
  /// schedule — so per-chunk effects merged in ascending chunk order
  /// replay canonical entity order and results are bit-identical at every
  /// threads setting. `worker` (< thread_count(), 0 = the caller) indexes
  /// per-worker scratch only; results must never depend on it. When
  /// `load` is non-null each chunk's wall-clock is accumulated into it
  /// (max/total/count) for the shard_imbalance observability. Blocks
  /// until all chunks complete; first exception rethrown on the caller.
  /// Not reentrant.
  using ChunkFn = std::function<void(std::size_t begin, std::size_t end,
                                     unsigned worker)>;
  void run_chunks(std::size_t items, std::size_t grain, ChunkLoad* load,
                  const ChunkFn& chunk_fn);

  /// Resolve a threads knob: 0 = hardware concurrency (minimum 1).
  [[nodiscard]] static unsigned resolve_threads(unsigned requested);

 private:
  /// One run_chunks call. Heap-allocated and shared so a worker waking
  /// late for an already-finished phase operates on that phase's own
  /// (exhausted) counter instead of racing the next phase's state.
  struct Job {
    std::size_t chunks = 0;
    std::atomic<std::size_t> next{0};
    std::size_t completed = 0;  // guarded by mutex_
    std::exception_ptr error;   // first failure, guarded by mutex_
  };

  void worker_loop(unsigned worker);
  void drain(const std::shared_ptr<Job>& job, unsigned worker);
  void dispatch(std::size_t chunk_count);
  void run_one_chunk(std::size_t chunk, unsigned worker);

  unsigned threads_ = 1;

  // The current run_chunks call's parameters. They live here, read by
  // whichever worker claims a chunk, because run_chunks is not reentrant
  // anyway; a late worker of a finished phase claims no chunk and so
  // never reads them.
  const ChunkFn* chunk_fn_ = nullptr;
  std::size_t chunk_items_ = 0;
  std::size_t chunk_grain_ = 1;
  ChunkLoad* chunk_load_ = nullptr;
  std::uint64_t dispatch_max_ns_ = 0;  // slowest chunk of this run_chunks

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool shutdown_ = false;
  std::uint64_t job_id_ = 0;     // bumps once per dispatch
  std::shared_ptr<Job> job_;     // current phase, guarded by mutex_
  /// Recycled Job allocations, one per pool thread (empty at one
  /// thread): a dispatch takes one no late-waking worker still holds
  /// (use_count == 1). A worker holds at most one Job, so one is always
  /// free and phases never allocate. Only touched by the dispatching
  /// caller.
  std::vector<std::shared_ptr<Job>> spares_;

  std::vector<std::thread> workers_;
};

}  // namespace poq::sim
