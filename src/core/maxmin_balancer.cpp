#include "core/maxmin_balancer.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

#include "util/error.hpp"

namespace poq::core {

namespace {

/// A non-negative whole number (or +infinity) as a count, saturated.
std::uint32_t saturated(double whole) {
  return whole < static_cast<double>(UINT32_MAX) ? static_cast<std::uint32_t>(whole)
                                                 : UINT32_MAX;
}

/// room_masks reads a word with at most this many live partners bit by
/// bit rather than comparing all of its counts.
constexpr int kWalkedWordBits = 8;

/// The set bits of a word, counted in registers: the SSE2 baseline has
/// no popcount instruction, so std::popcount is a library call.
int bit_count(std::uint64_t bits) {
  bits -= (bits >> 1) & 0x5555555555555555u;
  bits = (bits & 0x3333333333333333u) + ((bits >> 2) & 0x3333333333333333u);
  bits = (bits + (bits >> 4)) & 0x0f0f0f0f0f0f0f0fu;
  return static_cast<int>((bits * 0x0101010101010101u) >> 56);
}

}  // namespace

MaxMinBalancer::MaxMinBalancer(
    double distillation, BalancerPolicy policy,
    const std::vector<std::vector<std::uint32_t>>* generation_distances)
    : fraction_(distillation - std::floor(distillation)),
      floor_d_(0),
      ceil_d_(0),
      policy_(policy),
      generation_distances_(generation_distances) {
  require(distillation >= 0.0, "MaxMinBalancer: D must be >= 0");
  floor_d_ = saturated(std::floor(distillation));
  ceil_d_ = saturated(std::ceil(distillation));
  require(!policy_.detour_slack.has_value() || generation_distances_ != nullptr,
          "MaxMinBalancer: detour policy requires generation distances");
}

bool MaxMinBalancer::is_preferable(const PairLedger& ledger, NodeId x, NodeId left,
                                   NodeId right) const {
  const PairLedger::SwapCounts counts = ledger.swap_counts(x, left, right);
  return counts.beneficiary < std::min(room(counts.right), room(counts.left)) &&
         detour_allowed(x, left, right);
}

bool MaxMinBalancer::is_preferable_given_beneficiary(
    const PairLedger& ledger, NodeId x, NodeId left, NodeId right,
    std::uint32_t beneficiary) const {
  const PairLedger::SwapCounts counts = ledger.swap_counts(x, left, right);
  return beneficiary < std::min(room(counts.right), room(counts.left)) &&
         detour_allowed(x, left, right);
}

std::span<const MaxMinBalancer::Eligible> MaxMinBalancer::collect_eligible(
    const PairLedger& ledger, NodeId x, Scratch& scratch) const {
  const PairLedger::RowView row = ledger.row(x);
  if (scratch.eligible.size() < row.size()) scratch.eligible.resize(row.size());
  Eligible* const eligible = scratch.eligible.data();
  std::size_t size = 0;
  row.for_each([&](NodeId y, std::uint32_t count) {
    const std::uint32_t y_room = room(count);
    eligible[size] = Eligible{y, y_room};
    size += y_room >= 1 ? 1 : 0;
  });
  return {eligible, size};
}

namespace {

/// room_masks over `words` words of a row of n counts: W = 0 reads the
/// width from n; a fixed W (W = ceil(n/64)) unrolls the word loops.
template <std::size_t W>
void room_masks_of(const std::uint32_t* row, std::size_t n, const std::uint64_t* live,
                   std::uint32_t k, std::uint64_t* eligible, std::uint64_t* roomy) {
  const std::size_t words = W != 0 ? W : (n + 63) / 64;
  if (k == UINT32_MAX) {
    // No count exceeds k (and k + 1 would wrap).
    std::fill_n(eligible, words, std::uint64_t{0});
    std::fill_n(roomy, words, std::uint64_t{0});
    return;
  }
  const std::uint32_t k1 = k + 1;
#ifdef __SSE2__
  // Unsigned order as signed order: flip the sign bit of both sides.
  const __m128i sign = _mm_set1_epi32(INT32_MIN);
  const __m128i above_k = _mm_set1_epi32(static_cast<std::int32_t>(k ^ 0x80000000u));
  const __m128i above_k1 = _mm_set1_epi32(static_cast<std::int32_t>(k1 ^ 0x80000000u));
#endif
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint32_t* const counts = row + w * 64;
    std::uint64_t e = 0;
    std::uint64_t r = 0;
    if (bit_count(live[w]) <= kWalkedWordBits) {
      // Few live partners: read only theirs (every other count is 0).
      for (std::uint64_t bits = live[w]; bits != 0; bits &= bits - 1) {
        const int b = std::countr_zero(bits);
        e |= std::uint64_t{counts[b] > k} << b;
        r |= std::uint64_t{counts[b] > k1} << b;
      }
    } else {
      const std::size_t size = std::min<std::size_t>(64, n - w * 64);
      std::size_t i = 0;
#ifdef __SSE2__
      // The lanes of counts[at, at + 4) above `threshold`: all ones or 0.
      const auto above4 = [&](std::size_t at, __m128i threshold) {
        return _mm_cmpgt_epi32(
            _mm_xor_si128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(counts + at)),
                          sign),
            threshold);
      };
      // Sixteen counts at a time: the four compares' lanes are packed to
      // bytes (signed saturation keeps 0 and -1) for one movemask.
      const auto above16 = [&](__m128i threshold) {
        return static_cast<std::uint64_t>(static_cast<std::uint16_t>(
            _mm_movemask_epi8(_mm_packs_epi16(
                _mm_packs_epi32(above4(i, threshold), above4(i + 4, threshold)),
                _mm_packs_epi32(above4(i + 8, threshold), above4(i + 12, threshold))))));
      };
      for (; i + 16 <= size; i += 16) {
        e |= above16(above_k) << i;
        r |= above16(above_k1) << i;
      }
      const auto lanes = [&](__m128i threshold) {
        return static_cast<std::uint64_t>(
            _mm_movemask_ps(_mm_castsi128_ps(above4(i, threshold))));
      };
      for (; i + 4 <= size; i += 4) {
        e |= lanes(above_k) << i;
        r |= lanes(above_k1) << i;
      }
#endif
      for (; i < size; ++i) {
        e |= std::uint64_t{counts[i] > k} << i;
        r |= std::uint64_t{counts[i] > k1} << i;
      }
    }
    eligible[w] = e;
    roomy[w] = r;
  }
}

}  // namespace

template <std::size_t W>
std::optional<std::pair<NodeId, NodeId>> MaxMinBalancer::first_zero_pair(
    const PairLedger& ledger, NodeId x, const std::uint64_t* in_e) const {
  const std::size_t words = W != 0 ? W : ledger.live_words();
  const std::uint64_t* const live = ledger.live_bits().data();
  // Reject first: with A the AND of live(a) | {a} over the donors a in E,
  // some pair of E has a zero count exactly when E is not inside A. On
  // the deck's cells most decides have no zero pair, and this loop reads
  // each donor's bitset whole, with one branch per donor (taken at the
  // first donor whose AND leaves part of E out).
  std::array<std::uint64_t, W != 0 ? W : kMaxWords> all_live;  // words [0, words) used
  std::fill_n(all_live.begin(), words, ~std::uint64_t{0});
  bool some_zero = false;
  for (std::size_t donor_word = 0; donor_word < words && !some_zero; ++donor_word) {
    for (std::uint64_t donors = in_e[donor_word]; donors != 0; donors &= donors - 1) {
      const auto a = static_cast<NodeId>(donor_word * 64 + std::countr_zero(donors));
      const std::uint64_t* const live_a = live + a * words;
      std::uint64_t outside = 0;
      for (std::size_t w = 0; w < words; ++w) {
        all_live[w] &= live_a[w] | (w == donor_word ? std::uint64_t{1} << (a % 64) : 0);
        outside |= in_e[w] & ~all_live[w];
      }
      if (outside != 0) {
        some_zero = true;
        break;
      }
    }
  }
  if (!some_zero) return std::nullopt;
  // For donor a, the set bits of in_e & ~live(a) above a are the b > a
  // in E with C_a(b) = 0, ascending.
  for (std::size_t donor_word = 0; donor_word < words; ++donor_word) {
    for (std::uint64_t donors = in_e[donor_word]; donors != 0; donors &= donors - 1) {
      const auto a = static_cast<NodeId>(donor_word * 64 + std::countr_zero(donors));
      const std::uint64_t* const live_a = live + a * words;
      // Bits strictly above a in its own word (none when a % 64 = 63).
      std::uint64_t above = (~std::uint64_t{0} << (a % 64)) << 1;
      for (std::size_t w = donor_word; w < words; ++w, above = ~std::uint64_t{0}) {
        for (std::uint64_t zero = in_e[w] & ~live_a[w] & above; zero != 0;
             zero &= zero - 1) {
          const auto b = static_cast<NodeId>(w * 64 + std::countr_zero(zero));
          if (detour_allowed(x, a, b)) return std::pair{a, b};
        }
      }
    }
  }
  return std::nullopt;
}

template <std::size_t W>
std::optional<SwapCandidate> MaxMinBalancer::decide(const PairLedger& ledger, NodeId x,
                                                    const ReportView* reports,
                                                    Scratch& scratch) const {
  const std::size_t n = ledger.node_count();
  const std::size_t words = W != 0 ? W : ledger.live_words();
  const std::uint32_t* const row = ledger.dense_row(x);
  // room_masks_of writes words [0, words) of E and R, and nothing reads
  // past them. The arrays are left uninitialized: zeroing all 16 words
  // of the runtime-width body made the hotpath suite's 225-node decide
  // about 20% slower (4-core x86-64, SSE2 build).
  std::array<std::uint64_t, W != 0 ? W : kMaxWords> in_e;
  std::array<std::uint64_t, W != 0 ? W : kMaxWords> in_r;
  room_masks_of<W>(row, n, ledger.live_row(x), ceil_d_, in_e.data(), in_r.data());
  // At least two eligible partners: two bits in one word, or bits in two.
  std::uint64_t seen = 0;
  std::uint64_t two = 0;
  for (std::size_t w = 0; w < words; ++w) {
    two |= (in_e[w] & (in_e[w] - 1)) | (seen != 0 ? in_e[w] : 0);
    seen |= in_e[w];
  }
  if (two == 0) return std::nullopt;  // no pair to swap
  const auto zero =
      reports == nullptr
          ? first_zero_pair<W>(ledger, x, in_e.data())
          : first_zero_view_pair<W>(in_e.data(), *reports, [this, x](NodeId a, NodeId b) {
              return detour_allowed(x, a, b);
            });
  if (zero) return SwapCandidate{zero->first, zero->second, 0};
  // No zero pair: every count is >= 1, so only room >= 2 partners can be
  // preferable; list them from R's bits.
  if (scratch.roomy.size() < n) scratch.roomy.resize(n);
  Eligible* const roomy = scratch.roomy.data();
  std::size_t size = 0;
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t set = in_r[w]; set != 0; set &= set - 1) {
      const auto y = static_cast<NodeId>(w * 64 + std::countr_zero(set));
      roomy[size++] = Eligible{y, row[y] - ceil_d_};
    }
  }
  const std::span<const Eligible> listed(roomy, size);
  if (reports == nullptr) {
    // Each C_a(b) is one mirror load.
    return scan_pairs(x, listed, [&ledger](NodeId a) {
      const std::uint32_t* row_a = ledger.dense_row(a);
      return [row_a](NodeId b) { return row_a[b]; };
    });
  }
  return scan_pairs(x, listed, [reports](NodeId a) {
    return [reports, a](NodeId b) { return reports->view(a, b); };
  });
}

std::optional<SwapCandidate> MaxMinBalancer::decide_dense(const PairLedger& ledger,
                                                          NodeId x,
                                                          const ReportView* reports,
                                                          Scratch& scratch) const {
  switch (ledger.live_words()) {
    case 1:
      return decide<1>(ledger, x, reports, scratch);
    case 2:
      return decide<2>(ledger, x, reports, scratch);
    default:
      return decide<0>(ledger, x, reports, scratch);
  }
}

std::optional<SwapCandidate> MaxMinBalancer::best_swap(const PairLedger& ledger,
                                                       NodeId x,
                                                       Scratch& scratch) const {
  if (ledger.dense_row(x) != nullptr) return decide_dense(ledger, x, nullptr, scratch);
  const std::span<const Eligible> eligible = collect_eligible(ledger, x, scratch);
  if (eligible.size() < 2) return std::nullopt;  // no pair to swap
  return scan_pairs(x, eligible, [&ledger](NodeId a) {
    // Cursor over a's sorted row, started past a itself: every b it is
    // asked about is a later eligible partner, so b > a and b only grows.
    const PairLedger::SparseRow& row = ledger.sparse_row(a);
    auto k = static_cast<std::size_t>(
        std::lower_bound(row.partners.begin(), row.partners.end(), a) -
        row.partners.begin());
    return [&row, k](NodeId b) mutable -> std::uint32_t {
      while (k < row.partners.size() && row.partners[k] < b) ++k;
      return k < row.partners.size() && row.partners[k] == b ? row.counts[k] : 0;
    };
  });
}

std::optional<SwapCandidate> MaxMinBalancer::best_swap_with_reports(
    const PairLedger& ledger, NodeId x, const ReportView& reports,
    Scratch& scratch) const {
  require(ledger.dense_row(x) != nullptr,
          "best_swap_with_reports: needs a ledger with the dense count mirror");
  return decide_dense(ledger, x, &reports, scratch);
}

void room_masks(std::span<const std::uint32_t> row, const std::uint64_t* live,
                std::uint32_t k, std::uint64_t* eligible, std::uint64_t* roomy) {
  room_masks_of<0>(row.data(), row.size(), live, k, eligible, roomy);
}

MaxMinBalancer::Execution MaxMinBalancer::execute_swap(PairLedger& ledger, NodeId x,
                                                       NodeId left, NodeId right,
                                                       util::Rng& rng) const {
  Execution execution;
  execution.consumed_left = spend(rng);
  execution.consumed_right = spend(rng);
  ledger.apply_swap(x, left, right, execution.consumed_left, execution.consumed_right);
  return execution;
}

std::uint32_t MaxMinBalancer::spend(util::Rng& rng) const {
  // With a fraction, ceil(D) = floor(D) + 1.
  return fraction_ > 0.0 && rng.bernoulli(fraction_) ? ceil_d_ : floor_d_;
}

bool MaxMinBalancer::spend_draws() const { return fraction_ > 0.0; }

}  // namespace poq::core
