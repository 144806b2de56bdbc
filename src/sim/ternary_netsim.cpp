#include "sim/ternary_netsim.hpp"

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/ternary_kernel.hpp"

namespace seance::sim {

using netlist::Gate;
using netlist::GateKind;
using netlist::Netlist;

namespace detail {

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

}  // namespace detail

namespace {

using detail::Lanes;

/// Gate-level evaluator for detail::run_procedures.  The slots are the
/// cut nets; a feedback function is its cut net's gate function over the
/// current inputs and slots.  Each cut's cone is compiled once, at its
/// first evaluation, into a tape: the cone's gates in topological order,
/// stopping at inputs and cut nets.  Running a tape recomputes every gate
/// of the cone, so Gauss-Seidel updates made earlier in the same pass are
/// visible — as they are to the cover-level evaluator, which reads the
/// in-place state vector.
class GateEval {
 public:
  GateEval(const Netlist& net, detail::CutPlan plan)
      : net_(net),
        plan_(std::move(plan)),
        root_(net.size()),
        val_(static_cast<std::size_t>(net.size()) + 1, detail::kLanes0),
        is_cut_(static_cast<std::size_t>(net.size()), 0),
        tapes_(plan_.y.size() + 1) {
    for (const int y : plan_.y) is_cut_[static_cast<std::size_t>(y)] = 1;
    if (plan_.fsv >= 0) is_cut_[static_cast<std::size_t>(plan_.fsv)] = 1;
  }

  Lanes& input(int i) { return at(plan_.x[static_cast<std::size_t>(i)]); }
  Lanes& state(int n) { return at(plan_.y[static_cast<std::size_t>(n)]); }
  Lanes& fsv() { return at(plan_.fsv); }
  Lanes next_state(int n) {
    return run(tapes_[static_cast<std::size_t>(n)], plan_.y[static_cast<std::size_t>(n)]);
  }
  Lanes next_fsv() { return run(tapes_.back(), plan_.fsv); }

 private:
  /// One gate of a tape: `out` = kind over the values at args_[begin, end).
  struct Op {
    GateKind kind = GateKind::kConst;
    bool const_value = false;
    int out = 0;
    int begin = 0;
    int end = 0;
  };
  struct Tape {
    bool compiled = false;
    std::vector<Op> ops;
  };

  /// The gate function of cut net `cut` over the current input values
  /// and cut slots — its *next* value, not its slot.  The tape writes it
  /// to the scratch value root_, past the nets.
  Lanes run(Tape& tape, int cut) {
    if (!tape.compiled) compile(tape, cut);
    for (const Op& op : tape.ops) {
      Lanes v;
      switch (op.kind) {
        case GateKind::kConst:
          v = op.const_value ? detail::kLanes1 : detail::kLanes0;
          break;
        case GateKind::kBuf:
          v = arg(op.begin);
          break;
        case GateKind::kNot:
          v = detail::not_lanes(arg(op.begin));
          break;
        case GateKind::kAnd:
          v = detail::kLanes1;
          for (int k = op.begin; k < op.end; ++k) v = detail::and_lanes(v, arg(k));
          break;
        default:  // kOr, kNor; compile() admits no other kind
          v = detail::kLanes0;
          for (int k = op.begin; k < op.end; ++k) v = detail::or_lanes(v, arg(k));
          if (op.kind == GateKind::kNor) v = detail::not_lanes(v);
          break;
      }
      at(op.out) = v;
    }
    return at(root_);
  }

  Lanes& at(int net) { return val_[static_cast<std::size_t>(net)]; }
  Lanes& arg(int k) { return at(args_[static_cast<std::size_t>(k)]); }

  /// Emits the cone of `cut` depth-first, fanins in order — the order a
  /// recursive evaluation would visit them, so a malformed cone raises
  /// the same error at the same net.
  void compile(Tape& tape, int cut) {
    visited_.assign(static_cast<std::size_t>(net_.size()), 0);
    on_stack_.assign(static_cast<std::size_t>(net_.size()), 0);
    emit_function(tape, cut, root_);
    tape.compiled = true;
  }

  void visit(Tape& tape, int i) {
    const std::size_t k = static_cast<std::size_t>(i);
    if (is_cut_[k] != 0 || visited_[k] != 0) return;
    if (on_stack_[k] != 0) {
      throw std::logic_error("gate_ternary_verify: feedback cycle through net n" +
                             std::to_string(i) + " is not broken by a cut");
    }
    on_stack_[k] = 1;
    emit_function(tape, i, i);
    on_stack_[k] = 0;
    visited_[k] = 1;
  }

  void emit_function(Tape& tape, int i, int out) {
    const Gate& g = net_.gates()[static_cast<std::size_t>(i)];
    Op op{g.kind, g.const_value, out, static_cast<int>(args_.size()), 0};
    switch (g.kind) {
      case GateKind::kInput:
        return;  // holds its own value, and is never a root (locate_cuts)
      case GateKind::kConst:
        break;
      case GateKind::kBuf:
      case GateKind::kNot:
        if (g.fanin.size() != 1) {
          throw std::logic_error("gate_ternary_verify: gate n" + std::to_string(i) +
                                 " needs exactly one fanin");
        }
        [[fallthrough]];
      case GateKind::kAnd:
      case GateKind::kOr:
      case GateKind::kNor:
        for (const int f : g.fanin) visit(tape, f);
        op.begin = static_cast<int>(args_.size());
        args_.insert(args_.end(), g.fanin.begin(), g.fanin.end());
        break;
      default:
        throw std::logic_error("gate_ternary_verify: unknown gate kind");
    }
    op.end = static_cast<int>(args_.size());
    tape.ops.push_back(op);
  }

  const Netlist& net_;
  detail::CutPlan plan_;
  int root_;                ///< scratch value index of the tape being run
  std::vector<Lanes> val_;  ///< per net: input value, cut slot or gate value
  std::vector<char> is_cut_;
  std::vector<Tape> tapes_;  ///< y0..y{N-1}, then fsv
  std::vector<int> args_;    ///< fanin nets of every tape's ops
  std::vector<char> visited_;
  std::vector<char> on_stack_;
};

}  // namespace

TernaryReport gate_ternary_verify(const Netlist& netlist,
                                  const core::FantomMachine& machine,
                                  bool fsv_low) {
  GateEval eval(netlist, detail::locate_cuts(netlist, machine.layout));
  return detail::run_procedures(machine, eval, fsv_low);
}

TernaryReport gate_ternary_verify(const core::FantomMachine& machine,
                                  bool fsv_low) {
  Netlist net;
  (void)netlist::build_fantom(machine, net);
  return gate_ternary_verify(net, machine, fsv_low);
}

}  // namespace seance::sim
