// Gate-level ternary (0/1/X) verification of the exported netlist.
//
// The cover-level verifier (ternary_verify.hpp) runs Eichelberger's
// Procedures A and B against the synthesized *equations*; this one runs
// the same procedures against the structural *gate network* that
// build_fantom assembles and to_verilog exports — the artifact a
// downstream tool actually elaborates.  Feedback is cut exactly where
// the netlist cuts it: at the y placeholder BUFs and at the fsv net.
// Each cut's cone is compiled once into a tape of gates in topological
// order that stops at inputs and cuts, and each pass runs the tapes
// Gauss-Seidel style in the same order as the cover-level iteration
// (fsv first, then y0..yN-1), 64 transitions per word, so a machine
// whose factored gate forms are Kleene-equivalent to its covers produces
// an identical TernaryReport.  Running both and diffing the reports is
// the round-trip oracle: cover-level verdict, gate-level verdict on the
// built netlist, and gate-level verdict on the re-imported
// parse_verilog(to_verilog(...)) netlist must agree.

#pragma once

#include <vector>

#include "core/synthesize.hpp"
#include "netlist/netlist.hpp"
#include "sim/ternary_verify.hpp"

namespace seance::sim {

/// Runs Procedures A and B over every specified stable-state transition
/// of `machine`, evaluating the gate network instead of the covers.
/// `netlist` must expose the FANTOM observation points build_fantom
/// registers: inputs named x0..x{j-1}, outputs "y0".."y{N-1}" and (when
/// the layout has fsv) "fsv".  Works on a freshly built netlist or on
/// one re-imported through parse_verilog.  `fsv_low` pins the fsv *net*
/// to 0 (the paper's protection window), matching the cover-level
/// verifier.  Throws std::invalid_argument when the netlist lacks the
/// expected nets or the fsv net aliases an input or state cut, and
/// std::logic_error on a feedback cycle not broken by a cut or a BUF/NOT
/// without exactly one fanin — the latter two when the cone holding
/// them is first evaluated, so a machine with no transitions never
/// raises them.
[[nodiscard]] TernaryReport gate_ternary_verify(const netlist::Netlist& netlist,
                                                const core::FantomMachine& machine,
                                                bool fsv_low = true);

/// Convenience: assembles the netlist with build_fantom first.
[[nodiscard]] TernaryReport gate_ternary_verify(const core::FantomMachine& machine,
                                                bool fsv_low = true);

namespace detail {

/// Where the iteration cuts the gate graph: the primary inputs it
/// drives and the feedback nets it holds as explicit ternary slots.
struct CutPlan {
  std::vector<int> x;  ///< nets of inputs x0..x{j-1}
  std::vector<int> y;  ///< state cut nets (the y placeholder BUFs)
  int fsv = -1;        ///< fsv cut net, -1 when the layout has no fsv
};

/// Finds the cuts gate_ternary_verify iterates on; throws the
/// std::invalid_argument errors documented there.
[[nodiscard]] CutPlan locate_cuts(const netlist::Netlist& net,
                                  const core::VariableLayout& layout);

}  // namespace detail

}  // namespace seance::sim
