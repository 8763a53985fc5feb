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

std::optional<SwapCandidate> MaxMinBalancer::best_swap(const PairLedger& ledger,
                                                       NodeId x,
                                                       Scratch& scratch) const {
  const std::span<const Eligible> eligible = collect_eligible(ledger, x, scratch);
  if (ledger.dense_row(x) != nullptr) {
    // Below the full-reserve limit every C_a(b) is one mirror load.
    return scan_pairs(x, eligible, [&ledger](NodeId a) {
      const std::uint32_t* row = ledger.dense_row(a);
      return [row](NodeId b) { return row[b]; };
    });
  }
  return scan_pairs(x, eligible, [&ledger](NodeId a) {
    // Cursor over row(a), started past a itself: every b it is asked
    // about is a later eligible partner, so b > a and b only grows.
    const PairLedger::RowView row = ledger.row(a);
    const std::span<const NodeId> partners = row.partners();
    auto k = static_cast<std::size_t>(
        std::lower_bound(partners.begin(), partners.end(), a) - partners.begin());
    return [row, k](NodeId b) mutable -> std::uint32_t {
      const std::span<const NodeId> ids = row.partners();
      while (k < ids.size() && ids[k] < b) ++k;
      return k < ids.size() && ids[k] == b ? row.count_at(k) : 0;
    };
  });
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
