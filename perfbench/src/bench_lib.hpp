// perfbench's pure building blocks: order statistics and the tail rule,
// parsing of the program's key=value output, the seeded job streams, and
// the in-memory span tracer. No sockets, no child processes — everything
// here is unit-tested in tests/bench_lib_test.cpp.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "scenario/spec.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// --- statistics --------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);

/// The tail rule: the highest percentile of the ladder {50, 75, 90, 95,
/// 99, 99.9} that still has at least ten of `samples` beyond it. With
/// fewer than 20 samples no ladder entry qualifies and the tail is the
/// maximum, reported as percentile 100.
[[nodiscard]] double tail_percentile(std::size_t samples);

/// "p95", "p99.9", or "max" for 100.
[[nodiscard]] std::string percentile_label(double p);

// --- program output ------------------------------------------------------------

/// Numeric `name=value` tokens of poqsim's metric printout (labels such as
/// completed=no are skipped). Throws std::runtime_error on a malformed
/// token, so a changed output format fails loudly instead of reading 0.
[[nodiscard]] std::map<std::string, double> parse_metric_output(
    const std::string& text);

/// Sum of every `phase_ms.*` entry.
[[nodiscard]] double phase_ms_total(const std::map<std::string, double>& values);

// --- seeded inputs -------------------------------------------------------------

/// splitmix64: the benchmark's own generator, so its inputs never change
/// when the program's RNG does.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();

 private:
  std::uint64_t state_;
};

/// An endless job stream dealt from a fixed deck of cells. Deck d is a
/// seeded shuffle of every cell, so any window of whole decks holds the
/// same work whatever the seed, while order and simulator seeds vary.
class JobStream {
 public:
  JobStream(std::vector<poq::scenario::ScenarioSpec> deck, std::uint64_t seed);

  [[nodiscard]] std::size_t deck_size() const { return deck_.size(); }
  /// The i-th job: its deck cell with a seed derived from (seed, i).
  [[nodiscard]] poq::scenario::ScenarioSpec spec(std::size_t i);
  /// Deck index of the i-th job's cell.
  [[nodiscard]] std::size_t cell(std::size_t i);

 private:
  void extend_to(std::size_t deck_index);

  std::vector<poq::scenario::ScenarioSpec> deck_;
  std::uint64_t seed_;
  std::vector<std::size_t> order_;  // cell index per job, whole decks
};

// --- spans -------------------------------------------------------------------

/// One traced interval around a benchmark call into a layer. `parent` is
/// an index into the same lane (-1 for a root); `count` carries the
/// boundary's work count (bytes parsed, for example).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::int64_t job = -1;
  std::uint64_t count = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children counted once).
[[nodiscard]] std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// A single thread's span recorder. When disabled, open() returns an
/// inert scope and records nothing.
class Lane {
 public:
  class Scope {
   public:
    Scope(Lane* lane, std::int32_t index) : lane_(lane), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { close(); }
    /// End the span now (idempotent).
    void close();
    void set_count(std::uint64_t count);

   private:
    Lane* lane_;
    std::int32_t index_;
  };

  Lane(bool enabled, Clock::time_point epoch) : enabled_(enabled), epoch_(epoch) {}

  [[nodiscard]] Scope open(const char* name, std::int64_t job = -1);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  // stack of open span indices
};

/// Per-name totals over a set of lanes: span count, summed durations,
/// summed self times, summed counts, and every duration (for medians).
struct SpanSummary {
  std::size_t spans = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::uint64_t count = 0;
  std::vector<double> durations_ms;
};

[[nodiscard]] std::map<std::string, SpanSummary> summarize_spans(
    const std::vector<const Lane*>& lanes);

/// Write every span as one JSON object per line.
void write_spans(const std::string& path, const std::vector<const Lane*>& lanes);

}  // namespace perfbench
