// Parallel grid sweeps over scenarios.
//
// A sweep is a vector of ScenarioSpecs (the grid cells); each cell is
// replicated over `seeds_per_cell` seeds (spec.seed + r) and every
// (cell, seed) run is an independent task fanned across a std::thread
// pool. Determinism contract: aggregation order is fixed by (cell index,
// replication index), never by completion order, so the aggregated
// metrics of a sweep are bit-identical for any thread count — the
// sweep_determinism test and the BENCH regression gate both lean on this.
// Wall-clock timings are recorded per cell but excluded from that
// contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "scenario/metrics.hpp"
#include "scenario/spec.hpp"
#include "util/cancel.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace poq::scenario {

struct SweepOptions {
  /// Replications per cell; replication r runs spec.with_seed(spec.seed + r).
  std::uint32_t seeds_per_cell = 1;
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  unsigned threads = 0;
  /// Intra-run worker threads each task is expected to spawn (the
  /// sharded tick engine's `threads` knob). Auto-sized pools (threads ==
  /// 0) divide the hardware budget by this so the two parallelism levels
  /// compose without oversubscription; an explicit `threads` is taken as
  /// is.
  unsigned intra_run_threads = 1;
};

/// Aggregated result of one grid cell.
struct CellAggregate {
  ScenarioSpec spec;           // the cell's base spec (seed = base seed)
  std::uint32_t seeds = 0;     // replications aggregated
  /// Labels agreed on by every replication; a label whose value varies
  /// across seeds (e.g. "completed") is reported as "mixed".
  std::vector<std::pair<std::string, std::string>> labels;
  /// Per-scalar aggregation across replications, in first-seen metric
  /// order. A scalar a run omits (e.g. overhead of a starved run) simply
  /// contributes no sample.
  std::vector<std::pair<std::string, util::RunningStats>> scalars;
  /// Per-timing aggregation (phase_ms.* wall-clock): observability only,
  /// excluded — like wall_ms — from every determinism/regression compare.
  std::vector<std::pair<std::string, util::RunningStats>> timings;
  /// Wall-clock spent running this cell's replications, summed (ms).
  double wall_ms = 0.0;

  [[nodiscard]] bool has(const std::string& name) const;
  /// Aggregate for one scalar; throws PreconditionError if absent.
  [[nodiscard]] const util::RunningStats& at(const std::string& name) const;

  /// {"spec": ..., "seeds": n, "labels": {...},
  ///  "metrics": {name: {count, mean, stddev, min, max}},
  ///  "timings": {...} (when present), "wall_ms": t}
  [[nodiscard]] util::json::Value to_json() const;
};

/// One finished (cell, replication) task of a controlled sweep, reported
/// live while later tasks are still running. `metrics` carries the full
/// RunMetrics including the phase_ms.* timings (the serve daemon streams
/// these as progress events); it is null when the task was cancelled
/// mid-run. Events arrive in completion order — which worker threads make
/// nondeterministic — but the *aggregate* stays ordered by (cell, rep),
/// so streaming never weakens the determinism contract.
struct SweepEvent {
  std::size_t cell = 0;  ///< grid index
  std::size_t rep = 0;   ///< replication index within the cell
  const ScenarioSpec* spec = nullptr;   ///< the cell's base spec
  const RunMetrics* metrics = nullptr;  ///< null when cancelled
  double wall_ms = 0.0;
};

/// Invoked from worker threads, but serialized by the runner (never
/// concurrently with itself); the pointers are valid only for the call.
using SweepObserver = std::function<void(const SweepEvent&)>;

/// Result of a controlled (cancellable) sweep. Cancellation contract:
/// cells whose every replication completed before the cancel aggregate
/// exactly as in an uncancelled run — bit-identical, since each (cell,
/// seed) task is deterministic in isolation — and appear in `cells` with
/// their grid index in `cell_indices`; cells with any replication
/// cancelled or never started are excluded whole and counted in
/// `cancelled_cells`. No partially-aggregated cell is ever reported.
struct SweepReport {
  std::vector<CellAggregate> cells;
  std::vector<std::size_t> cell_indices;  ///< grid index per aggregate
  std::size_t cancelled_cells = 0;
  bool cancelled = false;  ///< the token fired before the sweep drained
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Run every (cell, replication) task across the pool and aggregate.
  /// The first exception thrown by any task (in task order) is rethrown
  /// after all workers drain. Cells dispatch through scenario::registry().
  [[nodiscard]] std::vector<CellAggregate> run(
      const std::vector<ScenarioSpec>& grid) const;

  /// run() with cooperative cancellation and live per-task events. When
  /// `cancel` fires, workers stop claiming tasks and in-flight runs abort
  /// at their next round/epoch boundary (the token is installed on each
  /// worker via util::ScopedCancel, so the core loops' per-round checks
  /// see it). Exceptions other than cancellation still rethrow, first in
  /// task order.
  [[nodiscard]] SweepReport run_controlled(const std::vector<ScenarioSpec>& grid,
                                           const util::CancelToken* cancel,
                                           const SweepObserver& observe = {}) const;

  /// Threads the runner will actually use for `task_count` tasks.
  [[nodiscard]] unsigned effective_threads(std::size_t task_count) const;

 private:
  SweepOptions options_;
};

/// Set the intra-run `threads` knob on every grid spec whose protocol
/// declares it (every simulating protocol); specs of protocols without a
/// tick loop (lp) are left untouched. Callers pair this
/// with SweepOptions::intra_run_threads so pool x intra-run threads stays
/// within the hardware budget.
void apply_intra_run_threads(std::vector<ScenarioSpec>& grid, unsigned threads);

}  // namespace poq::scenario
