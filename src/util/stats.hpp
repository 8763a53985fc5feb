// Streaming statistics used by the simulators and benchmark harnesses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace poq::util {

/// Welford online accumulator: mean/variance/min/max in O(1) per sample
/// without storing the samples.
class RunningStats {
 public:
  void add(double x);

  /// Reconstruct an accumulator from its summary moments (population
  /// variance). Used when deserializing persisted metrics; the
  /// reconstruction reports the same moments as the original accumulator.
  [[nodiscard]] static RunningStats from_moments(std::size_t count, double mean,
                                                 double variance, double min,
                                                 double max);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const;
  /// Population variance; 0 for fewer than 2 samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return mean() * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-width linear histogram over [lo, hi); samples outside the range
/// are clamped into the first/last bucket so mass is never dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);

  [[nodiscard]] std::size_t bucket_count() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
  [[nodiscard]] double bucket_lo(std::size_t i) const;
  [[nodiscard]] double bucket_hi(std::size_t i) const;
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// Linear-interpolated quantile estimate, q in [0, 1].
  [[nodiscard]] double quantile(double q) const;

 private:
  double lo_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace poq::util
