#include "scenario/metrics.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace poq::scenario {

namespace {

template <typename T>
T* find_entry(std::vector<std::pair<std::string, T>>& entries,
              const std::string& name) {
  for (auto& [key, value] : entries) {
    if (key == name) return &value;
  }
  return nullptr;
}

template <typename T>
const T* find_entry(const std::vector<std::pair<std::string, T>>& entries,
                    const std::string& name) {
  for (const auto& [key, value] : entries) {
    if (key == name) return &value;
  }
  return nullptr;
}

}  // namespace

void RunMetrics::set_label(const std::string& name, std::string value) {
  if (std::string* existing = find_entry(labels_, name)) {
    *existing = std::move(value);
    return;
  }
  labels_.emplace_back(name, std::move(value));
}

void RunMetrics::set_scalar(const std::string& name, double value) {
  if (double* existing = find_entry(scalars_, name)) {
    *existing = value;
    return;
  }
  scalars_.emplace_back(name, value);
}

void RunMetrics::set_stats(const std::string& name,
                           const util::RunningStats& stats) {
  if (util::RunningStats* existing = find_entry(stats_, name)) {
    *existing = stats;
    return;
  }
  stats_.emplace_back(name, stats);
}

void RunMetrics::set_timing(const std::string& name, double ms) {
  if (double* existing = find_entry(timings_, name)) {
    *existing = ms;
    return;
  }
  timings_.emplace_back(name, ms);
}

bool RunMetrics::has_label(const std::string& name) const {
  return find_entry(labels_, name) != nullptr;
}

bool RunMetrics::has_scalar(const std::string& name) const {
  return find_entry(scalars_, name) != nullptr;
}

const std::string& RunMetrics::label(const std::string& name) const {
  const std::string* value = find_entry(labels_, name);
  if (!value) throw PreconditionError(util::str_cat("no label metric '", name, "'"));
  return *value;
}

double RunMetrics::scalar(const std::string& name) const {
  const double* value = find_entry(scalars_, name);
  if (!value) throw PreconditionError(util::str_cat("no scalar metric '", name, "'"));
  return *value;
}

const util::RunningStats& RunMetrics::stats(const std::string& name) const {
  const util::RunningStats* value = find_entry(stats_, name);
  if (!value) throw PreconditionError(util::str_cat("no stats metric '", name, "'"));
  return *value;
}

bool RunMetrics::has_timing(const std::string& name) const {
  return find_entry(timings_, name) != nullptr;
}

double RunMetrics::timing(const std::string& name) const {
  const double* value = find_entry(timings_, name);
  if (!value) throw PreconditionError(util::str_cat("no timing metric '", name, "'"));
  return *value;
}

util::json::Value stats_to_json(const util::RunningStats& stats) {
  using util::json::Value;
  Value out = Value::object();
  out.set("count", static_cast<double>(stats.count()));
  out.set("mean", stats.mean());
  out.set("stddev", stats.stddev());
  out.set("min", stats.min());
  out.set("max", stats.max());
  return out;
}

util::json::Value RunMetrics::to_json(bool include_timings) const {
  using util::json::Value;
  Value out = Value::object();
  Value labels = Value::object();
  for (const auto& [name, value] : labels_) labels.set(name, value);
  out.set("labels", std::move(labels));
  Value scalars = Value::object();
  for (const auto& [name, value] : scalars_) scalars.set(name, value);
  out.set("scalars", std::move(scalars));
  Value stats = Value::object();
  for (const auto& [name, value] : stats_) stats.set(name, stats_to_json(value));
  out.set("stats", std::move(stats));
  if (include_timings && !timings_.empty()) {
    Value timings = Value::object();
    for (const auto& [name, value] : timings_) timings.set(name, value);
    out.set("timings", std::move(timings));
  }
  return out;
}

RunMetrics RunMetrics::from_json(const util::json::Value& value) {
  RunMetrics metrics;
  for (const auto& [name, label] : value.at("labels").members()) {
    metrics.set_label(name, label.as_string());
  }
  for (const auto& [name, scalar] : value.at("scalars").members()) {
    metrics.set_scalar(name, scalar.is_null() ? std::nan("") : scalar.as_number());
  }
  for (const auto& [name, summary] : value.at("stats").members()) {
    const auto count = static_cast<std::size_t>(summary.at("count").as_number());
    const double stddev = summary.at("stddev").as_number();
    metrics.set_stats(name, util::RunningStats::from_moments(
                                count, summary.at("mean").as_number(),
                                stddev * stddev, summary.at("min").as_number(),
                                summary.at("max").as_number()));
  }
  if (value.contains("timings")) {
    for (const auto& [name, timing] : value.at("timings").members()) {
      metrics.set_timing(name, timing.as_number());
    }
  }
  return metrics;
}

}  // namespace poq::scenario
