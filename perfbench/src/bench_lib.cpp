#include "bench_lib.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

// --- statistics --------------------------------------------------------------

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double tail_percentile(std::size_t samples) {
  // Ladder in tenths of a percent, highest first; integer ranks avoid
  // rounding a 10.0 boundary down to 9.999.
  for (const std::size_t permille : {999u, 990u, 950u, 900u, 750u, 500u}) {
    const std::size_t rank = (permille * samples + 999) / 1000;
    if (samples >= rank + 10) return static_cast<double>(permille) / 10.0;
  }
  return 100.0;
}

std::string percentile_label(double p) {
  if (p >= 100.0) return "max";
  std::ostringstream out;
  out << 'p' << p;
  return out.str();
}

// --- program output ------------------------------------------------------------

std::map<std::string, double> parse_metric_output(const std::string& text) {
  std::map<std::string, double> values;
  std::istringstream tokens(text);
  std::string token;
  while (tokens >> token) {
    const std::size_t equals = token.find('=');
    if (equals == std::string::npos || equals == 0 || equals + 1 == token.size()) {
      throw std::runtime_error("unexpected token in program output: '" + token + "'");
    }
    const char* first = token.data() + equals + 1;
    const char* last = token.data() + token.size();
    double value = 0.0;
    const auto [end, error] = std::from_chars(first, last, value);
    if (error != std::errc() || end != last) continue;  // a label
    values[token.substr(0, equals)] = value;
  }
  return values;
}

double phase_ms_total(const std::map<std::string, double>& values) {
  double total = 0.0;
  for (const auto& [name, value] : values) {
    if (name.rfind("phase_ms.", 0) == 0) total += value;
  }
  return total;
}

// --- seeded inputs -------------------------------------------------------------

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

std::uint64_t mix(std::uint64_t seed, std::uint64_t index, std::uint64_t tag) {
  SplitMix64 rng(seed * 0xD1B54A32D192ED03ULL ^ index * 0x9E3779B97F4A7C15ULL ^ tag);
  rng.next();
  return rng.next();
}

}  // namespace

JobStream::JobStream(std::vector<poq::scenario::ScenarioSpec> deck, std::uint64_t seed)
    : deck_(std::move(deck)), seed_(seed) {
  if (deck_.empty()) throw std::invalid_argument("JobStream: empty deck");
}

void JobStream::extend_to(std::size_t deck_index) {
  const std::size_t size = deck_.size();
  while (order_.size() < (deck_index + 1) * size) {
    const std::size_t d = order_.size() / size;
    std::vector<std::size_t> cells(size);
    for (std::size_t c = 0; c < size; ++c) cells[c] = c;
    SplitMix64 shuffle(mix(seed_, d, 1));
    for (std::size_t c = size; c > 1; --c) {
      std::swap(cells[c - 1], cells[shuffle.next() % c]);
    }
    order_.insert(order_.end(), cells.begin(), cells.end());
  }
}

poq::scenario::ScenarioSpec JobStream::spec(std::size_t i) {
  extend_to(i / deck_.size());
  poq::scenario::ScenarioSpec spec = deck_[order_[i]];
  // Below 2^31: seeds travel as JSON numbers and must stay exact.
  spec.seed = (mix(seed_, i, 2) >> 33) + 1;
  return spec;
}

std::size_t JobStream::cell(std::size_t i) {
  extend_to(i / deck_.size());
  return order_[i];
}

// --- spans -------------------------------------------------------------------

std::int64_t Lane::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
      .count();
}

Lane::Scope Lane::open(const char* name, std::int64_t job) {
  if (!enabled_) return Scope(nullptr, -1);
  Span span;
  span.name = name;
  span.start_ns = now_ns();
  span.parent = open_.empty() ? -1 : open_.back();
  span.job = job;
  spans_.push_back(span);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return Scope(this, index);
}

void Lane::Scope::close() {
  if (lane_ == nullptr) return;
  lane_->spans_[static_cast<std::size_t>(index_)].end_ns = lane_->now_ns();
  auto& open = lane_->open_;
  open.erase(std::find(open.begin(), open.end(), index_));
  lane_ = nullptr;
}

void Lane::Scope::set_count(std::uint64_t count) {
  if (lane_ != nullptr) lane_->spans_[static_cast<std::size_t>(index_)].count = count;
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t parent = spans[i].parent;
    if (parent >= 0 && static_cast<std::size_t>(parent) < spans.size()) {
      children[static_cast<std::size_t>(parent)].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    for (const std::size_t c : children[i]) {
      const std::int64_t from = std::max(spans[c].start_ns, span.start_ns);
      const std::int64_t to = std::min(spans[c].end_ns, span.end_ns);
      if (to > from) covered.emplace_back(from, to);
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [from, to] : covered) {
      const std::int64_t start = std::max(from, reach);
      if (to > start) union_ns += to - start;
      reach = std::max(reach, to);
    }
    self[i] = (span.end_ns - span.start_ns) - union_ns;
  }
  return self;
}

std::map<std::string, SpanSummary> summarize_spans(const std::vector<const Lane*>& lanes) {
  std::map<std::string, SpanSummary> summary;
  for (const Lane* lane : lanes) {
    const std::vector<Span>& spans = lane->spans();
    const std::vector<std::int64_t> self = self_times_ns(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      SpanSummary& entry = summary[spans[i].name];
      const double ms = static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
      ++entry.spans;
      entry.total_ms += ms;
      entry.self_ms += static_cast<double>(self[i]) / 1e6;
      entry.count += spans[i].count;
      entry.durations_ms.push_back(ms);
    }
  }
  return summary;
}

void write_spans(const std::string& path, const std::vector<const Lane*>& lanes) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    const std::vector<Span>& spans = lanes[l]->spans();
    const std::vector<std::int64_t> self = self_times_ns(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      out << "{\"lane\":" << l << ",\"id\":" << i << ",\"name\":\"" << span.name
          << "\",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
          << ",\"parent\":" << span.parent << ",\"job\":" << span.job
          << ",\"count\":" << span.count << ",\"self_ns\":" << self[i] << "}\n";
    }
  }
}

}  // namespace perfbench
