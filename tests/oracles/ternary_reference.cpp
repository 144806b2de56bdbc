#include "oracles/ternary_reference.hpp"

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/ternary_netsim.hpp"

namespace seance::sim {

using logic::Val3;
using netlist::Gate;
using netlist::GateKind;
using netlist::Netlist;

bool reference_update_slot(Val3& slot, Val3 next, bool widen_only) {
  if (widen_only) {
    if (slot == Val3::kX || next == slot) return false;
    slot = Val3::kX;
    return true;
  }
  if (next == slot) return false;
  slot = next;
  return true;
}

namespace {

/// Cover-level evaluator for run_procedures: the slots are the y-space
/// vector (x, y, fsv per VariableLayout) and each feedback function is
/// its cover, evaluated against that vector in place.
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

/// Gate-level evaluator for run_procedures.  The slots are the
/// cut nets; a feedback function is its cut net's gate function over the
/// current inputs and slots.  Every evaluation re-walks the cone with a
/// fresh memo, so Gauss-Seidel updates made earlier in the same pass are
/// visible — as they are to the cover-level evaluator, which reads the
/// in-place state vector.
class GateEval {
 public:
  GateEval(const Netlist& net, detail::CutPlan plan)
      : net_(net),
        plan_(std::move(plan)),
        input_val_(static_cast<std::size_t>(net.size()), Val3::k0),
        cut_slot_(static_cast<std::size_t>(net.size()), Val3::k0),
        is_cut_(static_cast<std::size_t>(net.size()), 0),
        memo_(static_cast<std::size_t>(net.size()), kUnset),
        on_stack_(static_cast<std::size_t>(net.size()), 0) {
    for (const int y : plan_.y) is_cut_[static_cast<std::size_t>(y)] = 1;
    if (plan_.fsv >= 0) is_cut_[static_cast<std::size_t>(plan_.fsv)] = 1;
  }

  void set_input(int i, Val3 v) {
    input_val_[static_cast<std::size_t>(plan_.x[static_cast<std::size_t>(i)])] = v;
  }
  Val3& state(int n) { return slot(plan_.y[static_cast<std::size_t>(n)]); }
  Val3& fsv() { return slot(plan_.fsv); }
  Val3 next_state(int n) { return next_value(plan_.y[static_cast<std::size_t>(n)]); }
  Val3 next_fsv() { return next_value(plan_.fsv); }

 private:
  static constexpr signed char kUnset = -1;

  Val3& slot(int net) { return cut_slot_[static_cast<std::size_t>(net)]; }

  /// The gate function of `net` over the current input values and cut
  /// slots — for a cut net this is its *next* value, not its slot.
  Val3 next_value(int net) {
    std::fill(memo_.begin(), memo_.end(), kUnset);
    return eval_function(net);
  }

  Val3 eval_net(int i) {
    if (is_cut_[static_cast<std::size_t>(i)] != 0) {
      return cut_slot_[static_cast<std::size_t>(i)];
    }
    const signed char cached = memo_[static_cast<std::size_t>(i)];
    if (cached != kUnset) return static_cast<Val3>(cached);
    if (on_stack_[static_cast<std::size_t>(i)] != 0) {
      throw std::logic_error("gate_ternary_verify: feedback cycle through net n" +
                             std::to_string(i) + " is not broken by a cut");
    }
    on_stack_[static_cast<std::size_t>(i)] = 1;
    const Val3 v = eval_function(i);
    on_stack_[static_cast<std::size_t>(i)] = 0;
    memo_[static_cast<std::size_t>(i)] = static_cast<signed char>(v);
    return v;
  }

  Val3 eval_function(int i) {
    const Gate& g = net_.gates()[static_cast<std::size_t>(i)];
    switch (g.kind) {
      case GateKind::kInput:
        return input_val_[static_cast<std::size_t>(i)];
      case GateKind::kConst:
        return reference_to_val3(g.const_value);
      case GateKind::kBuf:
      case GateKind::kNot: {
        if (g.fanin.size() != 1) {
          throw std::logic_error("gate_ternary_verify: gate n" + std::to_string(i) +
                                 " needs exactly one fanin");
        }
        const Val3 v = eval_net(g.fanin[0]);
        return g.kind == GateKind::kBuf ? v : not3(v);
      }
      case GateKind::kAnd: {
        Val3 v = Val3::k1;
        for (const int f : g.fanin) v = and3(v, eval_net(f));
        return v;
      }
      case GateKind::kOr:
      case GateKind::kNor: {
        Val3 v = Val3::k0;
        for (const int f : g.fanin) v = or3(v, eval_net(f));
        return g.kind == GateKind::kOr ? v : not3(v);
      }
    }
    throw std::logic_error("gate_ternary_verify: unknown gate kind");
  }

  const Netlist& net_;
  detail::CutPlan plan_;
  std::vector<Val3> input_val_;
  std::vector<Val3> cut_slot_;
  std::vector<char> is_cut_;
  std::vector<signed char> memo_;
  std::vector<char> on_stack_;
};

}  // namespace

TernaryReport reference_ternary_verify(const core::FantomMachine& machine,
                                       bool fsv_low) {
  CoverEval eval(machine);
  return reference_run_procedures(machine, eval, fsv_low);
}

TernaryReport reference_gate_ternary_verify(const Netlist& netlist,
                                            const core::FantomMachine& machine,
                                            bool fsv_low) {
  GateEval eval(netlist, detail::locate_cuts(netlist, machine.layout));
  return reference_run_procedures(machine, eval, fsv_low);
}

}  // namespace seance::sim
