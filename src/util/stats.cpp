#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace poq::util {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

RunningStats RunningStats::from_moments(std::size_t count, double mean,
                                        double variance, double min, double max) {
  require(variance >= 0.0, "RunningStats::from_moments: variance must be >= 0");
  RunningStats stats;
  if (count == 0) return stats;
  stats.count_ = count;
  stats.mean_ = mean;
  stats.m2_ = variance * static_cast<double>(count);
  stats.min_ = min;
  stats.max_ = max;
  return stats;
}

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return count_ == 0 ? 0.0 : min_; }

double RunningStats::max() const { return count_ == 0 ? 0.0 : max_; }

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), width_((hi - lo) / static_cast<double>(buckets)), counts_(buckets, 0) {
  require(hi > lo, "Histogram: hi must be > lo");
  require(buckets > 0, "Histogram: need at least one bucket");
}

void Histogram::add(double x) {
  const auto raw = static_cast<long>(std::floor((x - lo_) / width_));
  const long clamped =
      std::clamp<long>(raw, 0, static_cast<long>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(clamped)];
  ++total_;
}

double Histogram::bucket_lo(std::size_t i) const {
  require(i < counts_.size(), "Histogram::bucket_lo: index out of range");
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::bucket_hi(std::size_t i) const { return bucket_lo(i) + width_; }

double Histogram::quantile(double q) const {
  require(q >= 0.0 && q <= 1.0, "Histogram::quantile: q must be in [0,1]");
  if (total_ == 0) return lo_;
  const double target = q * static_cast<double>(total_);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cumulative + static_cast<double>(counts_[i]);
    if (next >= target) {
      const double inside =
          counts_[i] == 0 ? 0.0
                          : (target - cumulative) / static_cast<double>(counts_[i]);
      return bucket_lo(i) + inside * width_;
    }
    cumulative = next;
  }
  return bucket_hi(counts_.size() - 1);
}

}  // namespace poq::util
