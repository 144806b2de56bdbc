// Gate-level Boolean expression trees.
//
// SEANCE's step 7 (paper Fig. 5) transforms SOP covers into factored gate
// networks restricted to "first-level gates" (Armstrong/Friedman/Menon):
// gate inputs at the first logic level may only be *uncomplemented*
// variables, so a product with complemented literals is rendered
// AND-NOR:  a·b'·c'  =  AND(a, NOR(b, c)).
//
// The paper's Table 1 quality metric is the *depth* (number of gate
// levels) of the fsv equation and the deepest Y equation; Expr carries
// exactly that metric.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "logic/cube.hpp"

namespace seance::logic {

enum class Op : std::uint8_t { kConst, kVar, kNot, kAnd, kOr, kNor };

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

class Expr {
 public:
  [[nodiscard]] static ExprPtr constant(bool value);
  [[nodiscard]] static ExprPtr var(int index);
  /// NOT with double-negation simplification.
  [[nodiscard]] static ExprPtr negate(ExprPtr e);
  /// n-ary gates; zero children yield the gate's identity constant and a
  /// single child collapses (AND/OR) or negates (NOR).
  [[nodiscard]] static ExprPtr make_and(std::vector<ExprPtr> kids);
  [[nodiscard]] static ExprPtr make_or(std::vector<ExprPtr> kids);
  [[nodiscard]] static ExprPtr make_nor(std::vector<ExprPtr> kids);

  [[nodiscard]] Op op() const { return op_; }
  [[nodiscard]] bool const_value() const { return const_value_; }
  [[nodiscard]] int var_index() const { return var_; }
  [[nodiscard]] const std::vector<ExprPtr>& kids() const { return kids_; }

  /// Gate levels on the longest input-to-output path.  Variables and
  /// constants are depth 0; every gate (NOT, AND, OR, NOR) adds one level.
  [[nodiscard]] int depth() const;

  /// Number of gate nodes in the tree (shared nodes counted once).
  [[nodiscard]] int gate_count() const;

  /// Number of variable-leaf occurrences.
  [[nodiscard]] int literal_count() const;

  /// Highest variable index referenced, plus one (0 if none).
  [[nodiscard]] int num_vars() const;

  /// Evaluates with variable i bound to bit i of `assignment`.
  [[nodiscard]] bool eval(std::uint32_t assignment) const;

  [[nodiscard]] std::string to_string(std::span<const std::string> names = {}) const;

 private:
  Expr() = default;

  Op op_ = Op::kConst;
  bool const_value_ = false;
  int var_ = -1;
  std::vector<ExprPtr> kids_;
};

/// Two-level SOP expression: OR of ANDs, complemented literals as NOT(var).
[[nodiscard]] ExprPtr sop_expr(const Cover& cover);

/// First-level-gate SOP: complemented literals of each product are folded
/// into a NOR so every first-level gate input is a true variable
/// (paper step 7; Armstrong et al. 1968).
[[nodiscard]] ExprPtr first_level_sop_expr(const Cover& cover);

/// Product term for one cube in first-level-gate form.
[[nodiscard]] ExprPtr first_level_product(const Cube& cube);

}  // namespace seance::logic
