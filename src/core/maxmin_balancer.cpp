#include "core/maxmin_balancer.hpp"

#include <algorithm>
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

}  // namespace

MaxMinBalancer::MaxMinBalancer(
    double distillation, BalancerPolicy policy,
    const std::vector<std::vector<std::uint32_t>>* generation_distances)
    : distillation_(distillation),
      policy_(policy),
      generation_distances_(generation_distances) {
  require(distillation_ >= 0.0, "MaxMinBalancer: D must be >= 0");
  ceil_d_ = saturated(std::ceil(distillation_));
  require(!policy_.detour_slack.has_value() || generation_distances_ != nullptr,
          "MaxMinBalancer: detour policy requires generation distances");
}

bool MaxMinBalancer::is_preferable(const PairLedger& ledger, NodeId x, NodeId left,
                                   NodeId right) const {
  return is_preferable_given_beneficiary(ledger, x, left, right,
                                         ledger.count(left, right));
}

bool MaxMinBalancer::is_preferable_given_beneficiary(
    const PairLedger& ledger, NodeId x, NodeId left, NodeId right,
    std::uint32_t beneficiary) const {
  require(left != right && left != x && right != x,
          "is_preferable: swap endpoints must be three distinct nodes");
  return beneficiary <
             std::min(room(ledger.count(x, right)), room(ledger.count(x, left))) &&
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

std::size_t MaxMinBalancer::eligibility_masks(const PairLedger& ledger, NodeId x,
                                              const std::uint32_t* row,
                                              Scratch& scratch) const {
  const std::size_t words = ledger.live_words();
  if (scratch.eligible_bits.size() < words) scratch.eligible_bits.resize(words);
  if (scratch.roomy_bits.size() < words) scratch.roomy_bits.resize(words);
  std::uint64_t* const in_e = scratch.eligible_bits.data();
  room_masks({row, ledger.node_count()}, ledger.live_row(x), ceil_d_, in_e,
             scratch.roomy_bits.data());
  std::size_t size = 0;
  for (std::size_t w = 0; w < words; ++w) size += std::popcount(in_e[w]);
  return size;
}

std::span<const MaxMinBalancer::Eligible> MaxMinBalancer::listed(
    const PairLedger& ledger, const std::uint64_t* bits, const std::uint32_t* row,
    std::vector<Eligible>& out) const {
  if (out.size() < ledger.node_count()) out.resize(ledger.node_count());
  Eligible* const list = out.data();
  std::size_t size = 0;
  for (std::size_t w = 0; w < ledger.live_words(); ++w) {
    for (std::uint64_t set = bits[w]; set != 0; set &= set - 1) {
      const auto y = static_cast<NodeId>(w * 64 + std::countr_zero(set));
      list[size++] = Eligible{y, row[y] - ceil_d_};
    }
  }
  return {list, size};
}

std::optional<std::pair<NodeId, NodeId>> MaxMinBalancer::first_zero_pair(
    const PairLedger& ledger, NodeId x, const std::uint64_t* in_e) const {
  const std::size_t words = ledger.live_words();
  const std::uint64_t* const live = ledger.live_bits().data();
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

std::optional<SwapCandidate> MaxMinBalancer::best_swap(const PairLedger& ledger,
                                                       NodeId x,
                                                       Scratch& scratch) const {
  if (const std::uint32_t* const row = ledger.dense_row(x)) {
    if (eligibility_masks(ledger, x, row, scratch) < 2) return std::nullopt;  // no pair to swap
    if (const auto zero = first_zero_pair(ledger, x, scratch.eligible_bits.data())) {
      return SwapCandidate{zero->first, zero->second, 0};
    }
    // No zero pair: every count is >= 1, so only room >= 2 partners can
    // be preferable, and each C_a(b) is one mirror load.
    return scan_pairs(x, listed(ledger, scratch.roomy_bits.data(), row, scratch.roomy),
                      [&ledger](NodeId a) {
                        const std::uint32_t* row_a = ledger.dense_row(a);
                        return [row_a](NodeId b) { return row_a[b]; };
                      });
  }
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
  const std::uint32_t* const row = ledger.dense_row(x);
  require(row != nullptr,
          "best_swap_with_reports: needs a ledger with the dense count mirror");
  if (eligibility_masks(ledger, x, row, scratch) < 2) return std::nullopt;  // no pair to swap
  if (const auto zero = first_zero_view_pair(
          scratch.eligible_bits.data(), reports,
          [this, x](NodeId a, NodeId b) { return detour_allowed(x, a, b); })) {
    return SwapCandidate{zero->first, zero->second, 0};
  }
  return scan_pairs(x, listed(ledger, scratch.roomy_bits.data(), row, scratch.roomy),
                    [&reports](NodeId a) {
                      return [&reports, a](NodeId b) { return reports.view(a, b); };
                    });
}

void room_masks(std::span<const std::uint32_t> row, const std::uint64_t* live,
                std::uint32_t k, std::uint64_t* eligible, std::uint64_t* roomy) {
  const std::size_t n = row.size();
  const std::size_t words = (n + 63) / 64;
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
    const std::uint32_t* const counts = row.data() + w * 64;
    std::uint64_t e = 0;
    std::uint64_t r = 0;
    if (std::popcount(live[w]) <= kWalkedWordBits) {
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
      for (; i + 4 <= size; i += 4) {
        const __m128i c = _mm_xor_si128(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(counts + i)), sign);
        const auto lanes = [](__m128i mask) {
          return static_cast<std::uint64_t>(_mm_movemask_ps(_mm_castsi128_ps(mask)));
        };
        e |= lanes(_mm_cmpgt_epi32(c, above_k)) << i;
        r |= lanes(_mm_cmpgt_epi32(c, above_k1)) << i;
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

MaxMinBalancer::Execution MaxMinBalancer::execute_swap(PairLedger& ledger, NodeId x,
                                                       NodeId left, NodeId right,
                                                       util::Rng& rng) const {
  Execution execution;
  execution.consumed_left = spend(rng);
  execution.consumed_right = spend(rng);
  ledger.remove(x, left, execution.consumed_left);
  ledger.remove(x, right, execution.consumed_right);
  ledger.add(left, right, 1);
  return execution;
}

std::uint32_t MaxMinBalancer::spend(util::Rng& rng) const {
  const double whole = std::floor(distillation_);
  const double fraction = distillation_ - whole;
  // With a fraction, ceil(D) = floor(D) + 1.
  return fraction > 0.0 && rng.bernoulli(fraction) ? ceil_d_ : saturated(whole);
}

bool MaxMinBalancer::spend_draws() const {
  return distillation_ - std::floor(distillation_) > 0.0;
}

}  // namespace poq::core
