// Scalar Eichelberger Procedures A and B, retained as the differential
// oracle for the lane-parallel kernel in src/sim/ternary_kernel.hpp.
//
// This is the one-transition-at-a-time form the kernel replaced: each
// transition runs its own Gauss-Seidel passes over Val3 slots, the cover
// evaluator runs eval3 over the state vector and the gate evaluator
// walks each cut's cone recursively with a memo reset per evaluation.
// The suites and bench_ternary_netsim hold ternary_verify and
// gate_ternary_verify to these on full TernaryReports; the kernel
// template itself is here so a test can drive both kernels with the
// same (scalar and lane) evaluator pair.

#pragma once

#include <cstdint>
#include <sstream>

#include "core/synthesize.hpp"
#include "logic/ternary.hpp"
#include "netlist/netlist.hpp"
#include "sim/ternary_verify.hpp"

namespace seance::sim {

/// The scalar slot-update rule: widening sends a binary slot whose next
/// value differs to X and never narrows an X; narrowing writes `next`
/// through.  Returns true when the slot changed.
bool reference_update_slot(logic::Val3& slot, logic::Val3 next, bool widen_only);

inline logic::Val3 reference_to_val3(bool b) { return b ? logic::Val3::k1 : logic::Val3::k0; }

// An evaluator exposes the slots the scalar kernel iterates and the
// feedback functions that update them, one transition at a time:
//   void set_input(int i, Val3 v);  // drive primary input x_i
//   Val3& state(int n);             // slot of state variable y_n
//   Val3& fsv();                    // slot of fsv (layouts with fsv only)
//   Val3 next_state(int n);         // Y_n over the current inputs and slots
//   Val3 next_fsv();                // fsv's function, likewise

/// Iterates Gauss-Seidel passes — fsv first (it feeds the Y functions),
/// then y0..yN-1, each seeing the updates made before it — until no
/// slot changes.  Returns true when that fixpoint was reached inside the
/// bound.  False means the bound was exhausted (only possible for
/// Procedure B: narrowing can oscillate when the feedback is unstable
/// under the final input vector; widening is monotone on a finite
/// lattice) — the caller must surface it, a silent return would report
/// whatever partial state the last pass left as if it were the settled
/// value.
template <class Eval>
[[nodiscard]] bool reference_run_to_fixpoint(const core::VariableLayout& layout,
                                             Eval& eval, bool widen_only,
                                             bool fsv_low) {
  // Widening changes each slot at most once, so the widen fixpoint lands
  // well inside this bound; the slack covers narrowing chains.
  const int bound = 4 * (layout.num_state_vars + 2);
  for (int pass = 0; pass < bound; ++pass) {
    bool changed = false;
    if (layout.has_fsv) {
      const logic::Val3 next = fsv_low ? logic::Val3::k0 : eval.next_fsv();
      changed |= reference_update_slot(eval.fsv(), next, widen_only);
    }
    for (int n = 0; n < layout.num_state_vars; ++n) {
      const logic::Val3 next = eval.next_state(n);
      changed |= reference_update_slot(eval.state(n), next, widen_only);
    }
    if (!changed) return true;
  }
  return false;
}

/// Runs both procedures over every specified stable-state transition of
/// `machine`, evaluating feedback through `eval`.
template <class Eval>
[[nodiscard]] TernaryReport reference_run_procedures(
    const core::FantomMachine& machine, Eval& eval, bool fsv_low) {
  TernaryReport report;
  const flowtable::FlowTable& table = machine.table;
  const core::VariableLayout& layout = machine.layout;

  for (int s_a = 0; s_a < table.num_states(); ++s_a) {
    const std::uint32_t code_a = machine.codes[static_cast<std::size_t>(s_a)];
    for (const int col_a : table.stable_columns(s_a)) {
      for (int col_b = 0; col_b < table.num_columns(); ++col_b) {
        if (col_b == col_a || !table.entry(s_a, col_b).specified()) continue;
        const int s_b = table.entry(s_a, col_b).next;
        const std::uint32_t code_b = machine.codes[static_cast<std::size_t>(s_b)];
        ++report.transitions_checked;
        // Only the first failure is described; later ones only count.
        const auto note = [&](const auto&... what) {
          if (!report.first_failure.empty()) return;
          std::ostringstream msg;
          (msg << ... << what) << " on " << table.state_name(s_a) << " col "
                               << col_a << " -> " << col_b;
          report.first_failure = msg.str();
        };

        // ---- Procedure A: changing inputs at X, widen to fixpoint ----
        const std::uint32_t diff =
            static_cast<std::uint32_t>(col_a) ^ static_cast<std::uint32_t>(col_b);
        for (int i = 0; i < layout.num_inputs; ++i) {
          const std::uint32_t bit = 1u << i;
          eval.set_input(i, (diff & bit) ? logic::Val3::kX : reference_to_val3((col_a & bit) != 0));
        }
        for (int n = 0; n < layout.num_state_vars; ++n) {
          eval.state(n) = reference_to_val3((code_a >> n) & 1u);
        }
        if (layout.has_fsv) eval.fsv() = logic::Val3::k0;
        if (!reference_run_to_fixpoint(layout, eval, /*widen_only=*/true, fsv_low)) {
          ++report.fixpoint_overruns;
          note("procedure A: widening did not converge");
        }
        for (int n = 0; n < layout.num_state_vars; ++n) {
          const std::uint32_t bit = 1u << n;
          if ((code_a & bit) != (code_b & bit)) continue;  // allowed to move
          if (eval.state(n) == logic::Val3::kX) {
            ++report.procedure_a_violations;
            note("procedure A: y", n, " went X");
          }
        }

        // ---- Procedure B: final inputs, narrow to fixpoint -----------
        for (int i = 0; i < layout.num_inputs; ++i) {
          eval.set_input(i, reference_to_val3((static_cast<std::uint32_t>(col_b) >> i) & 1u));
        }
        if (!reference_run_to_fixpoint(layout, eval, /*widen_only=*/false, fsv_low)) {
          ++report.fixpoint_overruns;
          note("procedure B: settling did not converge");
        }
        bool resolved = true;
        for (int n = 0; n < layout.num_state_vars; ++n) {
          if (eval.state(n) != reference_to_val3((code_b >> n) & 1u)) resolved = false;
        }
        if (!resolved) {
          ++report.procedure_b_violations;
          note("procedure B: unresolved settling");
        }
      }
    }
  }
  return report;
}

/// ternary_verify, one transition at a time over the covers.
[[nodiscard]] TernaryReport reference_ternary_verify(
    const core::FantomMachine& machine, bool fsv_low = true);

/// gate_ternary_verify, one transition at a time over the netlist, with
/// the same errors.
[[nodiscard]] TernaryReport reference_gate_ternary_verify(
    const netlist::Netlist& netlist, const core::FantomMachine& machine,
    bool fsv_low = true);

}  // namespace seance::sim
