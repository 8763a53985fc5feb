#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <set>
#include <vector>

#include "util/error.hpp"

namespace poq::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() != b()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(Rng, ForkIsStable) {
  Rng parent(7);
  Rng child1 = parent.fork(3);
  Rng child2 = parent.fork(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child1(), child2());
}

TEST(Rng, ForkDoesNotAdvanceParent) {
  Rng a(7);
  Rng b(7);
  (void)a.fork(1);
  (void)a.fork(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DistinctStreamIdsGiveDistinctStreams) {
  Rng parent(7);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (c1() != c2()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(2, 1), PreconditionError);
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIntRoughlyUniform) {
  Rng rng(17);
  std::array<int, 10> buckets{};
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++buckets[rng.uniform_index(10)];
  for (int count : buckets) {
    EXPECT_NEAR(count, draws / 10, draws / 10 * 0.1);
  }
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(19);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(29);
  int hits = 0;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(draws), 0.3, 0.01);
}

TEST(Rng, ExponentialHasCorrectMean) {
  Rng rng(31);
  double total = 0.0;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) total += rng.exponential(2.0);
  EXPECT_NEAR(total / draws, 0.5, 0.02);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), PreconditionError);
  EXPECT_THROW(rng.exponential(-1.0), PreconditionError);
}

TEST(Rng, PoissonMatchesMeanSmall) {
  Rng rng(37);
  double total = 0.0;
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) total += static_cast<double>(rng.poisson(3.5));
  EXPECT_NEAR(total / draws, 3.5, 0.1);
}

TEST(Rng, PoissonMatchesMeanLarge) {
  Rng rng(41);
  double total = 0.0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) total += static_cast<double>(rng.poisson(100.0));
  EXPECT_NEAR(total / draws, 100.0, 1.0);
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, PoissonRejectsNegativeAndNonFiniteMeans) {
  // An infinite mean would reach a float-to-int cast of NaN, which is
  // undefined.
  Rng rng(1);
  for (const double mean : {-1.0, std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW((void)rng.poisson(mean), PreconditionError) << mean;
  }
}

TEST(Rng, NormalMatchesMoments) {
  Rng rng(43);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    const double v = rng.normal(5.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / draws;
  const double variance = sum_sq / draws - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(variance, 4.0, 0.15);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(47);
  std::vector<int> data{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> copy = data;
  rng.shuffle(std::span<int>(data));
  std::sort(data.begin(), data.end());
  EXPECT_EQ(data, copy);
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng rng(53);
  const auto sample = rng.sample_indices(100, 35);
  EXPECT_EQ(sample.size(), 35u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 35u);
  for (std::size_t v : sample) EXPECT_LT(v, 100u);
}

TEST(Rng, SampleIndicesFullSet) {
  Rng rng(59);
  const auto sample = rng.sample_indices(10, 10);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleIndicesRejectsOversample) {
  Rng rng(1);
  EXPECT_THROW(rng.sample_indices(5, 6), PreconditionError);
}

TEST(Rng, KeyedStreamsAreDeterministic) {
  Rng a = Rng::keyed(42, 1, 2, 3);
  Rng b = Rng::keyed(42, 1, 2, 3);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, KeyedStreamsDifferPerKeyWord) {
  const std::uint64_t reference = Rng::keyed(42, 1, 2, 3)();
  EXPECT_NE(Rng::keyed(43, 1, 2, 3)(), reference);
  EXPECT_NE(Rng::keyed(42, 9, 2, 3)(), reference);
  EXPECT_NE(Rng::keyed(42, 1, 9, 3)(), reference);
  EXPECT_NE(Rng::keyed(42, 1, 2, 9)(), reference);
  // Swapping key positions lands on a different stream too.
  EXPECT_NE(Rng::keyed(42, 2, 1, 3)(), reference);
}

// Counter-based streams have no shared state: drawing from one keyed
// stream never perturbs another, whatever the construction order.
TEST(Rng, KeyedStreamsAreIndependentOfConstructionOrder) {
  Rng first = Rng::keyed(7, 0, 1);
  const std::uint64_t early = first();
  Rng second = Rng::keyed(7, 0, 2);
  (void)second();
  Rng again = Rng::keyed(7, 0, 1);
  EXPECT_EQ(again(), early);
}

// Keyed streams should look uniform, not structured, even with adjacent
// counter values (the sharded engine keys streams by (round, entity)).
TEST(Rng, KeyedStreamsFromAdjacentCountersLookUniform) {
  int ones = 0;
  const int streams = 4000;
  for (int i = 0; i < streams; ++i) {
    Rng rng = Rng::keyed(5, 1, static_cast<std::uint64_t>(i), 0);
    if (rng.bernoulli(0.5)) ++ones;
  }
  EXPECT_NEAR(ones, streams / 2, streams * 0.05);
}

// --- batched keyed derivation: bit-equivalence with the scalar path ----

TEST(RngBatch, KeyedBatchMatchesScalarStreams) {
  std::vector<Rng> batch(257);
  Rng::keyed_batch(99, 7, 123, 1000, std::span<Rng>(batch));
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Rng scalar = Rng::keyed(99, 7, 123, 1000 + i);
    for (int draw = 0; draw < 8; ++draw) {
      ASSERT_EQ(batch[i](), scalar()) << "stream " << i << " draw " << draw;
    }
  }
}

// The acceptance grid: >= 10^6 (seed, tag, round, entity) tuples, varied
// across every key word and across probabilities (including the scalar
// early-out edges), each compared against Rng::keyed(...).bernoulli(p).
TEST(RngBatch, BernoulliBatchMatchesScalarOverMillionTuples) {
  const std::vector<double> probabilities = {0.0,  1e-12, 0.037, 0.3,
                                             0.5,  0.7,   0.999, 1.0};
  Rng meta(2026);
  std::vector<std::uint8_t> batch(8192);
  std::uint64_t tuples = 0;
  std::uint64_t hits = 0;
  for (int block = 0; block < 128; ++block) {
    const std::uint64_t seed = meta();
    const std::uint64_t tag = meta();
    const std::uint64_t round = meta();
    const std::uint64_t base = meta() % 1000;  // entity counters overlap
    const double p = probabilities[block % probabilities.size()];
    Rng::bernoulli_batch(seed, tag, round, base, p,
                         std::span<std::uint8_t>(batch));
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const bool scalar = Rng::keyed(seed, tag, round, base + i).bernoulli(p);
      ASSERT_EQ(batch[i] != 0, scalar)
          << "seed=" << seed << " tag=" << tag << " round=" << round
          << " entity=" << base + i << " p=" << p;
      ++tuples;
      hits += batch[i];
    }
  }
  EXPECT_GE(tuples, 1000000u);
  EXPECT_GT(hits, 0u);  // the grid exercised both decision outcomes
  EXPECT_LT(hits, tuples);
}

TEST(RngBatch, PoissonBatchMatchesScalarOverMillionTuples) {
  // Means straddle the sampler's small/large split (Knuth product vs
  // normal approximation) plus the zero shortcut.
  const std::vector<double> means = {0.0, 0.2, 1.0, 3.5, 29.9, 30.0, 80.0};
  Rng meta(4052);
  std::vector<std::uint64_t> batch(8192);
  std::uint64_t tuples = 0;
  for (int block = 0; block < 128; ++block) {
    const std::uint64_t seed = meta();
    const std::uint64_t tag = meta();
    const std::uint64_t round = meta();
    const double mean = means[block % means.size()];
    Rng::poisson_batch(seed, tag, round, 0, mean,
                       std::span<std::uint64_t>(batch));
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(batch[i], Rng::keyed(seed, tag, round, i).poisson(mean))
          << "seed=" << seed << " tag=" << tag << " round=" << round
          << " entity=" << i << " mean=" << mean;
      ++tuples;
    }
  }
  EXPECT_GE(tuples, 1000000u);
}

TEST(RngBatch, EmptyBatchesAreLegal) {
  Rng::keyed_batch(1, 2, 3, 0, std::span<Rng>());
  Rng::bernoulli_batch(1, 2, 3, 0, 0.5, std::span<std::uint8_t>());
  Rng::poisson_batch(1, 2, 3, 0, 1.0, std::span<std::uint64_t>());
}

// Every element should be roughly equally likely to be sampled.
TEST(Rng, SampleIndicesUnbiased) {
  Rng rng(61);
  std::array<int, 20> hits{};
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    for (std::size_t v : rng.sample_indices(20, 5)) ++hits[v];
  }
  const double expected = trials * 5.0 / 20.0;
  for (int count : hits) EXPECT_NEAR(count, expected, expected * 0.1);
}

}  // namespace
}  // namespace poq::util
