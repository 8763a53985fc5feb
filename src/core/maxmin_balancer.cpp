#include "core/maxmin_balancer.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace poq::core {

MaxMinBalancer::MaxMinBalancer(
    DistillationMatrix distillation, BalancerPolicy policy,
    const std::vector<std::vector<std::uint32_t>>* generation_distances)
    : distillation_(std::move(distillation)),
      policy_(policy),
      generation_distances_(generation_distances) {
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
  const double cap_right =
      static_cast<double>(ledger.count(x, right)) - distillation_.at(x, right);
  const double cap_left =
      static_cast<double>(ledger.count(x, left)) - distillation_.at(x, left);
  if (static_cast<double>(beneficiary) + 1.0 > std::min(cap_left, cap_right)) {
    return false;
  }
  return detour_allowed(x, left, right);
}

std::span<const MaxMinBalancer::Eligible> MaxMinBalancer::collect_eligible(
    const PairLedger& ledger, NodeId x, Scratch& scratch) const {
  const PairLedger::RowView row = ledger.row(x);
  if (scratch.eligible.size() < row.size()) scratch.eligible.resize(row.size());
  Eligible* const eligible = scratch.eligible.data();
  std::size_t size = 0;
  row.for_each([&](NodeId y, std::uint32_t count) {
    // floor(cap) is exact for the scan's test: an integer count c has
    // c + 1 <= cap iff c + 1 <= floor(cap). The clamp keeps the
    // conversion defined (a negative or NaN cap becomes room 0, which is
    // never eligible) and truncation is floor on what is left.
    const double cap = static_cast<double>(count) - distillation_.at(x, y);
    const auto room = static_cast<std::uint32_t>(
        std::min(static_cast<double>(UINT32_MAX), std::max(0.0, cap)));
    eligible[size] = Eligible{y, room};
    size += room >= 1 ? 1 : 0;
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
  const auto rounded = [&rng](double d) {
    const double floor_part = std::floor(d);
    const double frac = d - floor_part;
    auto amount = static_cast<std::uint32_t>(floor_part);
    if (frac > 0.0 && rng.bernoulli(frac)) ++amount;
    return amount;
  };
  Execution execution;
  execution.consumed_left = rounded(distillation_.at(x, left));
  execution.consumed_right = rounded(distillation_.at(x, right));
  ledger.remove(x, left, execution.consumed_left);
  ledger.remove(x, right, execution.consumed_right);
  ledger.add(left, right, 1);
  return execution;
}

}  // namespace poq::core
