#include "sim/ternary_verify.hpp"

#include <span>
#include <vector>

#include "logic/ternary.hpp"
#include "sim/ternary_kernel.hpp"

namespace seance::sim {

using logic::Val3;

namespace {

/// Cover-level evaluator for detail::run_procedures: the slots are the
/// y-space vector (x, y, fsv per VariableLayout) and each feedback
/// function is its cover, evaluated against that vector in place.
class CoverEval {
 public:
  explicit CoverEval(const core::FantomMachine& machine)
      : machine_(machine),
        vars_(static_cast<std::size_t>(machine.layout.y_space_vars()), Val3::k0) {}

  void set_input(int i, Val3 v) { vars_[static_cast<std::size_t>(i)] = v; }
  Val3& state(int n) {
    return vars_[static_cast<std::size_t>(machine_.layout.state_var(n))];
  }
  Val3& fsv() { return vars_[static_cast<std::size_t>(machine_.layout.fsv_var())]; }
  Val3 next_state(int n) {
    return eval3(machine_.y[static_cast<std::size_t>(n)].cover, vars_);
  }
  // fsv sees only (x, y).
  Val3 next_fsv() {
    return eval3(machine_.fsv.cover,
                 std::span<const Val3>(vars_).first(
                     static_cast<std::size_t>(machine_.layout.xy_vars())));
  }

 private:
  const core::FantomMachine& machine_;
  std::vector<Val3> vars_;
};

}  // namespace

TernaryReport ternary_verify(const core::FantomMachine& machine, bool fsv_low) {
  CoverEval eval(machine);
  return detail::run_procedures(machine, eval, fsv_low);
}

}  // namespace seance::sim
