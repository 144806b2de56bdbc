#include "sim/ternary_netsim.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "logic/ternary.hpp"
#include "sim/ternary_kernel.hpp"

namespace seance::sim {

using logic::Val3;
using netlist::Gate;
using netlist::GateKind;
using netlist::Netlist;

namespace {

using detail::to_val3;

/// Where the iteration cuts the gate graph: the primary inputs it
/// drives and the feedback nets it holds as explicit ternary slots.
struct CutPlan {
  std::vector<int> x;  ///< nets of inputs x0..x{j-1}
  std::vector<int> y;  ///< state cut nets (the y placeholder BUFs)
  int fsv = -1;        ///< fsv cut net, -1 when the layout has no fsv
};

CutPlan locate_cuts(const Netlist& net, const core::VariableLayout& layout) {
  CutPlan plan;
  std::vector<int> input_of_name(static_cast<std::size_t>(layout.num_inputs), -1);
  for (int i = 0; i < net.size(); ++i) {
    const Gate& g = net.gates()[static_cast<std::size_t>(i)];
    if (g.kind != GateKind::kInput) continue;
    for (int k = 0; k < layout.num_inputs; ++k) {
      if (g.name == "x" + std::to_string(k)) input_of_name[static_cast<std::size_t>(k)] = i;
    }
  }
  for (int k = 0; k < layout.num_inputs; ++k) {
    const int n = input_of_name[static_cast<std::size_t>(k)];
    if (n < 0) {
      throw std::invalid_argument("gate_ternary_verify: netlist has no input x" +
                                  std::to_string(k));
    }
    plan.x.push_back(n);
  }
  for (int n = 0; n < layout.num_state_vars; ++n) {
    const int cut = net.output("y" + std::to_string(n));
    if (net.gates()[static_cast<std::size_t>(cut)].kind == GateKind::kInput) {
      throw std::invalid_argument("gate_ternary_verify: state output y" +
                                  std::to_string(n) + " is an input net");
    }
    for (const int prev : plan.y) {
      if (prev == cut) {
        throw std::invalid_argument(
            "gate_ternary_verify: state outputs share net n" + std::to_string(cut));
      }
    }
    plan.y.push_back(cut);
  }
  if (layout.has_fsv) {
    plan.fsv = net.output("fsv");
    const Gate& g = net.gates()[static_cast<std::size_t>(plan.fsv)];
    if (g.kind == GateKind::kInput) {
      throw std::invalid_argument(
          "gate_ternary_verify: fsv net n" + std::to_string(plan.fsv) +
          " is an input — pinning it low would drive a primary input");
    }
    for (const int y : plan.y) {
      if (y == plan.fsv) {
        throw std::invalid_argument(
            "gate_ternary_verify: fsv net n" + std::to_string(plan.fsv) +
            " aliases a state cut — pinning it low would freeze a state "
            "variable (build_fantom anchors fsv behind a BUF to prevent this)");
      }
    }
  }
  return plan;
}

/// Gate-level evaluator for detail::run_procedures.  The slots are the
/// cut nets; a feedback function is its cut net's gate function over the
/// current inputs and slots.  Every evaluation re-walks the cone with a
/// fresh memo, so Gauss-Seidel updates made earlier in the same pass are
/// visible — as they are to the cover-level evaluator, which reads the
/// in-place state vector.
class GateEval {
 public:
  GateEval(const Netlist& net, CutPlan plan)
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
        return to_val3(g.const_value);
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
  CutPlan plan_;
  std::vector<Val3> input_val_;
  std::vector<Val3> cut_slot_;
  std::vector<char> is_cut_;
  std::vector<signed char> memo_;
  std::vector<char> on_stack_;
};

}  // namespace

TernaryReport gate_ternary_verify(const Netlist& netlist,
                                  const core::FantomMachine& machine,
                                  bool fsv_low) {
  GateEval eval(netlist, locate_cuts(netlist, machine.layout));
  return detail::run_procedures(machine, eval, fsv_low);
}

TernaryReport gate_ternary_verify(const core::FantomMachine& machine,
                                  bool fsv_low) {
  Netlist net;
  (void)netlist::build_fantom(machine, net);
  return gate_ternary_verify(net, machine, fsv_low);
}

}  // namespace seance::sim
