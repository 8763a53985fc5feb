// Linear program model builder.
//
// The paper's §3 formulation is a pure LP over swap rates sigma_i(x,y),
// generation rates g(x,y) and consumption rates c(x,y); this builder holds
// the variables (with box bounds), linear constraints and objective in the
// form the bundled simplex solver consumes.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace poq::lp {

using VarId = std::uint32_t;
using RowId = std::uint32_t;

/// +infinity for "no upper bound".
inline constexpr double kInf = std::numeric_limits<double>::infinity();

enum class Sense { kMinimize, kMaximize };
enum class Relation { kLessEqual, kEqual, kGreaterEqual };

/// One term of a linear expression.
struct Term {
  VarId var;
  double coefficient;
};

/// Sparse linear expression: sum of terms (no constant part).
using LinearExpr = std::vector<Term>;

/// A single linear constraint `expr relation rhs`.
struct Constraint {
  LinearExpr expr;
  Relation relation = Relation::kLessEqual;
  double rhs = 0.0;
};

/// Mutable LP: box-bounded variables, linear constraints, one objective.
class LpModel {
 public:
  /// Adds a variable with bounds [lo, hi] (hi may be kInf). Returns its id.
  VarId add_variable(double lo, double hi, std::string name = {});

  /// Convenience: non-negative variable [0, kInf).
  VarId add_nonnegative(std::string name = {}) { return add_variable(0.0, kInf, std::move(name)); }

  void set_objective_sense(Sense sense) { sense_ = sense; }
  [[nodiscard]] Sense objective_sense() const { return sense_; }

  /// Sets (replaces) the objective coefficient of `var`.
  void set_objective_coefficient(VarId var, double coefficient);

  RowId add_constraint(LinearExpr expr, Relation relation, double rhs);

  [[nodiscard]] std::size_t variable_count() const { return lower_.size(); }
  [[nodiscard]] std::size_t constraint_count() const { return constraints_.size(); }

  [[nodiscard]] double lower_bound(VarId var) const { return lower_.at(var); }
  [[nodiscard]] double upper_bound(VarId var) const { return upper_.at(var); }
  [[nodiscard]] double objective_coefficient(VarId var) const { return objective_.at(var); }
  [[nodiscard]] const std::string& name(VarId var) const { return names_.at(var); }
  [[nodiscard]] const Constraint& constraint(RowId row) const { return constraints_.at(row); }
  [[nodiscard]] const std::vector<Constraint>& constraints() const { return constraints_; }

  /// Objective value of an assignment (no feasibility check).
  [[nodiscard]] double objective_value(const std::vector<double>& x) const;

  /// Max constraint violation and bound violation of an assignment.
  [[nodiscard]] double max_violation(const std::vector<double>& x) const;

 private:
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<double> objective_;
  std::vector<std::string> names_;
  std::vector<Constraint> constraints_;
  Sense sense_ = Sense::kMinimize;
};

}  // namespace poq::lp
