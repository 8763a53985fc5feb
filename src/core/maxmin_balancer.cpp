#include "core/maxmin_balancer.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace poq::core {

namespace {

/// A non-negative whole number (or +infinity) as a count, saturated.
std::uint32_t saturated(double whole) {
  return whole < static_cast<double>(UINT32_MAX) ? static_cast<std::uint32_t>(whole)
                                                 : UINT32_MAX;
}

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

std::optional<std::pair<NodeId, NodeId>> MaxMinBalancer::first_zero_pair(
    const PairLedger& ledger, NodeId x, std::span<const Eligible> eligible,
    Scratch& scratch) const {
  const std::size_t words = ledger.live_words();
  if (scratch.mask.size() < words) scratch.mask.resize(words);
  // E as a bitmask, each word accumulated in a register (E ascends).
  std::uint64_t* const in_e = scratch.mask.data();
  std::size_t k = 0;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t word = 0;
    for (; k < eligible.size() && eligible[k].node / 64 == w; ++k) {
      word |= std::uint64_t{1} << (eligible[k].node % 64);
    }
    in_e[w] = word;
  }
  // For donor a, the set bits of in_e & ~live(a) above a are the b > a
  // in E with C_a(b) = 0, ascending.
  const std::uint64_t* const live = ledger.live_bits().data();
  for (const Eligible& e : eligible) {
    const NodeId a = e.node;
    const std::uint64_t* const live_a = live + a * words;
    // Bits strictly above a in its own word (none when a % 64 = 63).
    std::uint64_t above = (~std::uint64_t{0} << (a % 64)) << 1;
    for (std::size_t w = a / 64; w < words; ++w, above = ~std::uint64_t{0}) {
      for (std::uint64_t zero = in_e[w] & ~live_a[w] & above; zero != 0; zero &= zero - 1) {
        const auto b = static_cast<NodeId>(w * 64 + std::countr_zero(zero));
        if (detour_allowed(x, a, b)) return std::pair{a, b};
      }
    }
  }
  return std::nullopt;
}

std::span<const MaxMinBalancer::Eligible> MaxMinBalancer::roomy(
    std::span<const Eligible> eligible, Scratch& scratch) {
  if (scratch.roomy.size() < eligible.size()) scratch.roomy.resize(eligible.size());
  Eligible* const roomy = scratch.roomy.data();
  std::size_t size = 0;
  for (const Eligible& e : eligible) {
    roomy[size] = e;
    size += e.room >= 2 ? 1 : 0;
  }
  return {roomy, size};
}

std::optional<SwapCandidate> MaxMinBalancer::best_swap(const PairLedger& ledger,
                                                       NodeId x,
                                                       Scratch& scratch) const {
  const std::span<const Eligible> eligible = collect_eligible(ledger, x, scratch);
  if (eligible.size() < 2) return std::nullopt;  // no pair to swap
  if (ledger.dense_row(x) != nullptr) {
    if (const auto zero = first_zero_pair(ledger, x, eligible, scratch)) {
      return SwapCandidate{zero->first, zero->second, 0};
    }
    // No zero pair: every count is >= 1, so only room >= 2 partners can
    // be preferable, and each C_a(b) is one mirror load.
    return scan_pairs(x, roomy(eligible, scratch), [&ledger](NodeId a) {
      const std::uint32_t* row = ledger.dense_row(a);
      return [row](NodeId b) { return row[b]; };
    });
  }
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
  const std::span<const Eligible> eligible = collect_eligible(ledger, x, scratch);
  if (eligible.size() < 2) return std::nullopt;  // no pair to swap
  if (const auto zero = first_zero_view_pair(
          eligible, reports,
          [this, x](NodeId a, NodeId b) { return detour_allowed(x, a, b); }, scratch)) {
    return SwapCandidate{zero->first, zero->second, 0};
  }
  return scan_pairs(x, roomy(eligible, scratch), [&reports](NodeId a) {
    return [&reports, a](NodeId b) { return reports.view(a, b); };
  });
}

std::span<const NodeId> report_order(std::span<const MaxMinBalancer::Eligible> eligible,
                                     const MaxMinBalancer::ReportView& reports,
                                     MaxMinBalancer::Scratch& scratch) {
  const std::uint32_t depth = reports.depth;
  // Bucket now - round for a heard reporter, `depth` for one never heard
  // from (round 0).
  const auto bucket_of = [&reports, depth](NodeId u) {
    const std::uint32_t round = reports.rounds[u];
    return round == 0 ? depth : reports.now - round;
  };
  const std::size_t buckets = std::size_t{depth} + 1;
  if (scratch.order.size() < eligible.size()) scratch.order.resize(eligible.size());
  if (scratch.buckets.size() < buckets + 1) scratch.buckets.resize(buckets + 1);
  // start[b + 1] counts bucket b; the prefix sum turns start[b] into
  // bucket b's first index.
  std::uint32_t* const start = scratch.buckets.data();
  std::fill_n(start, buckets + 1, 0u);
  for (const MaxMinBalancer::Eligible& e : eligible) {
    const std::uint32_t bucket = bucket_of(e.node);
    // A heard round must be in (now - depth, now]: one after `now` wraps
    // to a huge bucket, one too old would share the never-heard bucket.
    ensure(bucket < depth || reports.rounds[e.node] == 0,
           "report_order: a report round outside (now - depth, now]");
    ++start[bucket + 1];
  }
  for (std::size_t b = 1; b < buckets; ++b) start[b] += start[b - 1];
  NodeId* const order = scratch.order.data();
  for (const MaxMinBalancer::Eligible& e : eligible) {
    order[start[bucket_of(e.node)]++] = e.node;
  }
  return {order, eligible.size()};
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

}  // namespace poq::core
