// Uniform run result for the scenario API.
//
// Every protocol adapter reports the same shape: insertion-ordered named
// labels (small categorical facts like completed=yes / status=optimal),
// named scalar metrics, named RunningStats distributions, and named
// wall-clock timings (the phase-kernel `phase_ms.*` entries). Consumers
// (poqsim printing, BENCH_*.json emission, sweep aggregation) read this
// one type instead of six bespoke Result structs, and JSON serialization
// lives here and nowhere else.
//
// Timings are a separate category from scalars on purpose: scalars are
// covered by the determinism contract and the --check regression gates,
// while timings are wall-clock observability (like a sweep cell's
// wall_ms) and are excluded from every bit-identity comparison —
// to_json(false) drops them for exactly that use.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"
#include "util/stats.hpp"

namespace poq::scenario {

class RunMetrics {
 public:
  /// Insert or overwrite; first insertion fixes the display position.
  void set_label(const std::string& name, std::string value);
  void set_scalar(const std::string& name, double value);
  void set_stats(const std::string& name, const util::RunningStats& stats);
  /// Wall-clock observability (milliseconds), e.g. "phase_ms.decide".
  void set_timing(const std::string& name, double ms);

  [[nodiscard]] bool has_label(const std::string& name) const;
  [[nodiscard]] bool has_scalar(const std::string& name) const;
  [[nodiscard]] bool has_timing(const std::string& name) const;

  /// Lookups throw PreconditionError naming the missing metric.
  [[nodiscard]] const std::string& label(const std::string& name) const;
  [[nodiscard]] double scalar(const std::string& name) const;
  [[nodiscard]] const util::RunningStats& stats(const std::string& name) const;
  [[nodiscard]] double timing(const std::string& name) const;

  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& labels()
      const {
    return labels_;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, double>>& scalars() const {
    return scalars_;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, util::RunningStats>>&
  stats() const {
    return stats_;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, double>>& timings()
      const {
    return timings_;
  }

  /// {"labels": {...}, "scalars": {...}, "stats": {name: {count, mean,
  /// stddev, min, max}}, "timings": {...}}. Stats round-trip through
  /// their summary (count / mean / stddev / min / max), which is all
  /// downstream consumers read; the "timings" key appears only when
  /// non-empty. Pass include_timings = false for the dumps the
  /// determinism suites compare bit for bit — timings are wall-clock and
  /// explicitly outside that contract.
  [[nodiscard]] util::json::Value to_json(bool include_timings = true) const;
  [[nodiscard]] static RunMetrics from_json(const util::json::Value& value);

 private:
  std::vector<std::pair<std::string, std::string>> labels_;
  std::vector<std::pair<std::string, double>> scalars_;
  std::vector<std::pair<std::string, util::RunningStats>> stats_;
  std::vector<std::pair<std::string, double>> timings_;
};

/// Summarize a RunningStats into the JSON object shape to_json uses.
[[nodiscard]] util::json::Value stats_to_json(const util::RunningStats& stats);

}  // namespace poq::scenario
