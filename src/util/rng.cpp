#include "util/rng.hpp"

#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace poq::util {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

constexpr std::uint64_t kSplitmixGamma = 0x9E3779B97F4A7C15ULL;

/// The stateless finalizer of splitmix64: splitmix64(s) == mix64(s + gamma).
/// The batch derivation loops over this directly, with the counter folded
/// into the pre-increment value, so it never threads mutable state.
constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The (seed, a, b) sponge prefix of Rng::keyed — everything that does not
/// depend on the per-entity key word c, hoisted once per batch.
constexpr std::uint64_t keyed_prefix(std::uint64_t seed, std::uint64_t a,
                                     std::uint64_t b) {
  std::uint64_t sm = seed;
  std::uint64_t hash = mix64(sm + kSplitmixGamma);
  sm = hash ^ a;
  hash = mix64(sm + kSplitmixGamma);
  sm = hash ^ b;
  hash = mix64(sm + kSplitmixGamma);
  return hash;
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) {
  return mix64(state += kSplitmixGamma);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

Rng Rng::fork(std::uint64_t stream_id) const {
  // Mix the current state with the stream id through splitmix64 so child
  // streams are decorrelated from the parent and from each other.
  std::uint64_t sm = state_[0] ^ rotl(state_[2], 13) ^
                     (stream_id * 0xD1342543DE82EF95ULL + 0x2545F4914F6CDD1DULL);
  Rng child(splitmix64(sm));
  return child;
}

Rng Rng::keyed(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
               std::uint64_t c) {
  // Sponge-style fold: absorb each key word into the running hash through
  // a full splitmix64 mix, so tuples differing in any word (including by
  // swaps across positions) land on decorrelated streams.
  std::uint64_t sm = seed;
  std::uint64_t hash = splitmix64(sm);
  sm = hash ^ a;
  hash = splitmix64(sm);
  sm = hash ^ b;
  hash = splitmix64(sm);
  sm = hash ^ c;
  hash = splitmix64(sm);
  return Rng(hash);
}

void Rng::keyed_batch(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                      std::uint64_t c0, std::span<Rng> out) {
  const std::uint64_t prefix = keyed_prefix(seed, a, b);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint64_t hash = mix64((prefix ^ (c0 + i)) + kSplitmixGamma);
    out[i] = Rng(hash);
  }
}

void Rng::bernoulli_batch(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                          std::uint64_t c0, double p,
                          std::span<std::uint8_t> out) {
  // Scalar equivalence: bernoulli(p) for p in (0, 1) draws one output and
  // tests (output >> 11) * 2^-53 < p. Both sides scale exactly by 2^53
  // (power-of-two scaling of a 53-bit integer and of p), so the test is
  // the integer compare (output >> 11) < ceil(p * 2^53) — for an integer
  // k, k < x iff k < ceil(x). p <= 0 / p >= 1 reproduce the scalar
  // early-outs as thresholds 0 / 2^53 (no 53-bit value reaches 2^53).
  std::uint64_t threshold = 0;
  if (p >= 1.0) {
    threshold = 1ULL << 53;
  } else if (p > 0.0) {
    threshold = static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
  }
  // The stream's first raw output depends only on state_[1] — the second
  // seeding step of Rng(hash) — so one derivation mix and one seeding mix
  // per entity suffice: 3 mix64 calls replace the scalar path's 8 plus an
  // engine step, and the loop body is branch-free and independent across
  // entities (auto-vectorizable).
  const std::uint64_t prefix = keyed_prefix(seed, a, b);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint64_t hash = mix64((prefix ^ (c0 + i)) + kSplitmixGamma);
    const std::uint64_t state1 = mix64(hash + 2 * kSplitmixGamma);
    const std::uint64_t output = rotl(state1 * 5, 7) * 9;
    out[i] = static_cast<std::uint8_t>((output >> 11) < threshold);
  }
}

void Rng::poisson_batch(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                        std::uint64_t c0, double mean,
                        std::span<std::uint64_t> out) {
  const std::uint64_t prefix = keyed_prefix(seed, a, b);
  for (std::size_t i = 0; i < out.size(); ++i) {
    Rng rng(mix64((prefix ^ (c0 + i)) + kSplitmixGamma));
    out[i] = rng.poisson(mean);
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  require(lo <= hi, "Rng::uniform_int: lo must be <= hi");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>((*this)());
  }
  // Rejection sampling (Lemire-style threshold) for exact uniformity.
  const std::uint64_t threshold = (0 - span) % span;
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return lo + static_cast<std::int64_t>(r % span);
  }
}

std::size_t Rng::uniform_index(std::size_t n) {
  require(n > 0, "Rng::uniform_index: n must be positive");
  return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

double Rng::uniform_double() {
  // 53 random bits mapped to [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform_double(double lo, double hi) {
  require(lo <= hi, "Rng::uniform_double: lo must be <= hi");
  return lo + (hi - lo) * uniform_double();
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform_double() < p;
}

double Rng::exponential(double rate) {
  require(rate > 0.0, "Rng::exponential: rate must be positive");
  double u;
  do {
    u = uniform_double();
  } while (u == 0.0);
  return -std::log(u) / rate;
}

std::uint64_t Rng::poisson(double mean) {
  require(std::isfinite(mean) && mean >= 0.0,
          "Rng::poisson: mean must be finite and non-negative");
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    // Knuth's product method; exact and fast for small means.
    const double limit = std::exp(-mean);
    std::uint64_t count = 0;
    double product = uniform_double();
    while (product > limit) {
      ++count;
      product *= uniform_double();
    }
    return count;
  }
  // Normal approximation with continuity correction for large means; the
  // simulators only use large means for stress scenarios where the
  // approximation error is immaterial.
  const double sample = normal(mean, std::sqrt(mean));
  return sample <= 0.5 ? 0 : static_cast<std::uint64_t>(sample + 0.5);
}

double Rng::normal(double mean, double stddev) {
  double u1;
  do {
    u1 = uniform_double();
  } while (u1 == 0.0);
  const double u2 = uniform_double();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  require(k <= n, "Rng::sample_indices: k must be <= n");
  std::vector<std::size_t> pool(n);
  for (std::size_t i = 0; i < n; ++i) pool[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + uniform_index(n - i);
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

}  // namespace poq::util
