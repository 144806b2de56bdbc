#include "sim/ternary_verify.hpp"

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/ternary_kernel.hpp"

namespace seance::sim {

namespace {

using detail::Lanes;

/// Cover-level evaluator for detail::run_procedures: the slots are the
/// y-space vector (x, y, fsv per VariableLayout) and each feedback
/// function is its cover, evaluated against that vector in place.
class CoverEval {
 public:
  explicit CoverEval(const core::FantomMachine& machine)
      : machine_(machine),
        vars_(static_cast<std::size_t>(machine.layout.y_space_vars())) {}

  Lanes& input(int i) { return vars_[static_cast<std::size_t>(i)]; }
  Lanes& state(int n) {
    return vars_[static_cast<std::size_t>(machine_.layout.state_var(n))];
  }
  Lanes& fsv() { return vars_[static_cast<std::size_t>(machine_.layout.fsv_var())]; }
  Lanes next_state(int n) {
    return eval(machine_.y[static_cast<std::size_t>(n)].cover);
  }
  // The fsv cover spans (x, y) only, so it never reads the fsv slot.
  Lanes next_fsv() { return eval(machine_.fsv.cover); }

 private:
  /// OR over the cubes of the AND of their literals.  A positive literal
  /// reads the variable's planes as they are, a negative one swapped.
  Lanes eval(const logic::Cover& cover) const {
    Lanes result = detail::kLanes0;
    for (const logic::Cube& c : cover.cubes()) {
      Lanes term = detail::kLanes1;
      for (std::uint32_t m = c.care() & c.value(); m != 0; m &= m - 1) {
        const Lanes& v = vars_[static_cast<std::size_t>(std::countr_zero(m))];
        term.can0 |= v.can0;
        term.can1 &= v.can1;
      }
      for (std::uint32_t m = c.care() & ~c.value(); m != 0; m &= m - 1) {
        const Lanes& v = vars_[static_cast<std::size_t>(std::countr_zero(m))];
        term.can0 |= v.can1;
        term.can1 &= v.can0;
      }
      result = detail::or_lanes(result, term);
    }
    return result;
  }

  const core::FantomMachine& machine_;
  std::vector<Lanes> vars_;
};

}  // namespace

TernaryReport ternary_verify(const core::FantomMachine& machine, bool fsv_low) {
  CoverEval eval(machine);
  return detail::run_procedures(machine, eval, fsv_low);
}

}  // namespace seance::sim
