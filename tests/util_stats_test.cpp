#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace poq::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.min(), 0.0);
  EXPECT_EQ(stats.max(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats stats;
  stats.add(4.5);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 4.5);
  EXPECT_DOUBLE_EQ(stats.min(), 4.5);
  EXPECT_DOUBLE_EQ(stats.max(), 4.5);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> data{1.0, 2.0, 2.0, 3.0, 7.5, -1.0, 0.0};
  RunningStats stats;
  double sum = 0.0;
  for (double x : data) {
    stats.add(x);
    sum += x;
  }
  const double mean = sum / static_cast<double>(data.size());
  double ss = 0.0;
  for (double x : data) ss += (x - mean) * (x - mean);
  EXPECT_NEAR(stats.mean(), mean, 1e-12);
  EXPECT_NEAR(stats.variance(), ss / static_cast<double>(data.size()), 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), -1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 7.5);
  EXPECT_NEAR(stats.sum(), sum, 1e-12);
}

TEST(Histogram, CountsAndClamping) {
  Histogram hist(0.0, 10.0, 5);
  hist.add(0.5);    // bucket 0
  hist.add(9.99);   // bucket 4
  hist.add(-3.0);   // clamped to bucket 0
  hist.add(42.0);   // clamped to bucket 4
  hist.add(5.0);    // bucket 2
  EXPECT_EQ(hist.total(), 5u);
  EXPECT_EQ(hist.bucket(0), 2u);
  EXPECT_EQ(hist.bucket(2), 1u);
  EXPECT_EQ(hist.bucket(4), 2u);
}

TEST(Histogram, BucketBoundaries) {
  Histogram hist(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(hist.bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(hist.bucket_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(hist.bucket_lo(4), 8.0);
  EXPECT_DOUBLE_EQ(hist.bucket_hi(4), 10.0);
}

TEST(Histogram, QuantileApproximatesUniform) {
  Histogram hist(0.0, 1.0, 100);
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) hist.add(rng.uniform_double());
  EXPECT_NEAR(hist.quantile(0.5), 0.5, 0.02);
  EXPECT_NEAR(hist.quantile(0.9), 0.9, 0.02);
  EXPECT_NEAR(hist.quantile(0.1), 0.1, 0.02);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), PreconditionError);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), PreconditionError);
}

}  // namespace
}  // namespace poq::util
