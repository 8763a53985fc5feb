#include "lp/model.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace poq::lp {

VarId LpModel::add_variable(double lo, double hi, std::string name) {
  require(lo <= hi, "LpModel::add_variable: lo must be <= hi");
  require(!std::isnan(lo) && !std::isnan(hi), "LpModel::add_variable: NaN bound");
  require(lo != kInf && hi != -kInf, "LpModel::add_variable: empty box");
  const auto id = static_cast<VarId>(lower_.size());
  lower_.push_back(lo);
  upper_.push_back(hi);
  objective_.push_back(0.0);
  if (name.empty()) name = util::str_cat("x", id);
  names_.push_back(std::move(name));
  return id;
}

void LpModel::set_objective_coefficient(VarId var, double coefficient) {
  require(var < variable_count(), "LpModel: unknown variable");
  objective_[var] = coefficient;
}

RowId LpModel::add_constraint(LinearExpr expr, Relation relation, double rhs) {
  for (const Term& term : expr) {
    require(term.var < variable_count(), "LpModel: constraint uses unknown variable");
    require(std::isfinite(term.coefficient), "LpModel: non-finite coefficient");
  }
  require(std::isfinite(rhs), "LpModel: non-finite rhs");
  const auto id = static_cast<RowId>(constraints_.size());
  constraints_.push_back(Constraint{std::move(expr), relation, rhs});
  return id;
}

double LpModel::objective_value(const std::vector<double>& x) const {
  require(x.size() == variable_count(), "LpModel: assignment size mismatch");
  double total = 0.0;
  for (std::size_t v = 0; v < x.size(); ++v) total += objective_[v] * x[v];
  return total;
}

double LpModel::max_violation(const std::vector<double>& x) const {
  require(x.size() == variable_count(), "LpModel: assignment size mismatch");
  double worst = 0.0;
  for (std::size_t v = 0; v < x.size(); ++v) {
    worst = std::max(worst, lower_[v] - x[v]);
    if (upper_[v] != kInf) worst = std::max(worst, x[v] - upper_[v]);
  }
  for (const Constraint& row : constraints_) {
    double lhs = 0.0;
    for (const Term& term : row.expr) lhs += term.coefficient * x[term.var];
    switch (row.relation) {
      case Relation::kLessEqual:
        worst = std::max(worst, lhs - row.rhs);
        break;
      case Relation::kGreaterEqual:
        worst = std::max(worst, row.rhs - lhs);
        break;
      case Relation::kEqual:
        worst = std::max(worst, std::abs(lhs - row.rhs));
        break;
    }
  }
  return worst;
}

}  // namespace poq::lp
