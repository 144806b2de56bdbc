// Eichelberger's Procedures A and B [5], written once for both levels.
//
// ternary_verify (covers) and gate_ternary_verify (netlist cut cones)
// differ only in how a feedback function is evaluated.  Everything else
// lives here: which transitions are checked, how each procedure is
// seeded, the Gauss-Seidel pass order, the fixpoint bound, and the
// verdict messages — so the two levels produce identical TernaryReports
// whenever their evaluators agree.  The kernel is a template over the
// evaluator, so the fixpoint loop makes no virtual call.
//
// Transitions run in blocks of up to 64 lanes, one transition per bit of
// a word.  A ternary value is two bitplanes, "can be 0" and "can be 1"
// (0 = {1,0}, 1 = {0,1}, X = {1,1}), so Kleene and/or/not and the slot
// update rules are a few word operations for the whole block.  The
// passes run in lockstep until no lane changes or the bound is reached.
// A pass that changes nothing in a lane leaves it at a fixpoint of the
// pass, so later passes leave that lane alone: each lane ends in the
// state, overrun and verdict of a run of its transition on its own.

#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <vector>

#include "core/synthesize.hpp"
#include "sim/ternary_verify.hpp"

namespace seance::sim::detail {

/// Ternary values of up to 64 lanes: bit l of `can0` / `can1` says lane
/// l's value can be 0 / can be 1.
struct Lanes {
  std::uint64_t can0 = 0;
  std::uint64_t can1 = 0;
};

inline constexpr Lanes kLanes0{~std::uint64_t{0}, 0};
inline constexpr Lanes kLanes1{0, ~std::uint64_t{0}};

inline Lanes not_lanes(Lanes a) { return {a.can1, a.can0}; }
inline Lanes and_lanes(Lanes a, Lanes b) { return {a.can0 | b.can0, a.can1 & b.can1}; }
inline Lanes or_lanes(Lanes a, Lanes b) { return {a.can0 & b.can0, a.can1 | b.can1}; }

/// The slot-update rule shared by both levels; returns the lanes whose
/// slot changed.  Widening (Procedure A) is monotone in the information
/// order (0,1 below X): an X never narrows back to a binary value, and a
/// binary slot whose next value differs — even a binary one — goes to X,
/// because "the value moved" is exactly what some delay assignment can
/// stretch into a glitch.  In bitplanes that is the union of slot and
/// next.  Narrowing (Procedure B) writes the next value through.
inline std::uint64_t update_lanes(Lanes& slot, Lanes next, bool widen_only) {
  const Lanes updated =
      widen_only ? Lanes{slot.can0 | next.can0, slot.can1 | next.can1} : next;
  const std::uint64_t changed =
      (updated.can0 ^ slot.can0) | (updated.can1 ^ slot.can1);
  slot = updated;
  return changed;
}

// An evaluator exposes the slots the kernel iterates and the feedback
// functions that update them, all as Lanes:
//   Lanes& input(int i);     // primary input x_i
//   Lanes& state(int n);     // slot of state variable y_n
//   Lanes& fsv();            // slot of fsv (layouts with fsv only)
//   Lanes next_state(int n); // Y_n over the current inputs and slots
//   Lanes next_fsv();        // fsv's function, likewise

/// Iterates Gauss-Seidel passes — fsv first (it feeds the Y functions),
/// then y0..yN-1, each seeing the updates made before it — until no
/// `active` lane changes.  Returns the lanes that still changed in the
/// last pass the bound allowed: 0 means every lane reached its fixpoint.
/// A nonzero lane exhausted the bound (only possible for Procedure B:
/// narrowing can oscillate when the feedback is unstable under the final
/// input vector; widening is monotone on a finite lattice) — the caller
/// must surface it, a silent return would report whatever partial state
/// the last pass left as if it were the settled value.
template <class Eval>
[[nodiscard]] std::uint64_t run_to_fixpoint(const core::VariableLayout& layout,
                                            Eval& eval, bool widen_only,
                                            bool fsv_low, std::uint64_t active) {
  // Widening changes each slot at most once, so the widen fixpoint lands
  // well inside this bound; the slack covers narrowing chains.
  const int bound = 4 * (layout.num_state_vars + 2);
  std::uint64_t changed = 0;
  for (int pass = 0; pass < bound; ++pass) {
    changed = 0;
    if (layout.has_fsv) {
      changed |= update_lanes(eval.fsv(), fsv_low ? kLanes0 : eval.next_fsv(),
                              widen_only);
    }
    for (int n = 0; n < layout.num_state_vars; ++n) {
      changed |= update_lanes(eval.state(n), eval.next_state(n), widen_only);
    }
    changed &= active;
    if (changed == 0) break;
  }
  return changed;
}

/// Runs both procedures over every specified stable-state transition of
/// `machine`, evaluating feedback through `eval`.
template <class Eval>
[[nodiscard]] TernaryReport run_procedures(const core::FantomMachine& machine,
                                           Eval& eval, bool fsv_low) {
  const flowtable::FlowTable& table = machine.table;
  const core::VariableLayout& layout = machine.layout;

  struct Transition {
    int s_a = 0;
    int col_a = 0;
    int col_b = 0;
    std::uint32_t code_a = 0;
    std::uint32_t code_b = 0;
  };
  std::vector<Transition> transitions;
  for (int s_a = 0; s_a < table.num_states(); ++s_a) {
    for (const int col_a : table.stable_columns(s_a)) {
      for (int col_b = 0; col_b < table.num_columns(); ++col_b) {
        if (col_b == col_a || !table.entry(s_a, col_b).specified()) continue;
        const int s_b = table.entry(s_a, col_b).next;
        transitions.push_back({s_a, col_a, col_b,
                               machine.codes[static_cast<std::size_t>(s_a)],
                               machine.codes[static_cast<std::size_t>(s_b)]});
      }
    }
  }

  TernaryReport report;
  report.transitions_checked = static_cast<int>(transitions.size());
  const int num_vars = layout.num_state_vars;
  // Per block: lanes of each input bit / code bit, and the failures.
  std::vector<Lanes> in_a(static_cast<std::size_t>(layout.num_inputs));
  std::vector<Lanes> in_b(in_a.size());
  std::vector<std::uint64_t> code_a1(static_cast<std::size_t>(num_vars));
  std::vector<std::uint64_t> code_b1(code_a1.size());
  std::vector<std::uint64_t> went_x(code_a1.size());
  for (std::size_t base = 0; base < transitions.size(); base += 64) {
    const std::size_t lanes = std::min<std::size_t>(64, transitions.size() - base);
    const std::uint64_t active =
        lanes == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
    std::fill(in_a.begin(), in_a.end(), Lanes{});
    std::fill(in_b.begin(), in_b.end(), Lanes{});
    std::fill(code_a1.begin(), code_a1.end(), 0);
    std::fill(code_b1.begin(), code_b1.end(), 0);
    for (std::size_t l = 0; l < lanes; ++l) {
      const Transition& t = transitions[base + l];
      const std::uint64_t bit = std::uint64_t{1} << l;
      for (int i = 0; i < layout.num_inputs; ++i) {
        const bool a = (t.col_a >> i) & 1;
        const bool b = (t.col_b >> i) & 1;
        // Procedure A drives the changing inputs to X.
        Lanes& ia = in_a[static_cast<std::size_t>(i)];
        if (!a || !b) ia.can0 |= bit;
        if (a || b) ia.can1 |= bit;
        Lanes& ib = in_b[static_cast<std::size_t>(i)];
        (b ? ib.can1 : ib.can0) |= bit;
      }
      for (int n = 0; n < num_vars; ++n) {
        if ((t.code_a >> n) & 1u) code_a1[static_cast<std::size_t>(n)] |= bit;
        if ((t.code_b >> n) & 1u) code_b1[static_cast<std::size_t>(n)] |= bit;
      }
    }

    // ---- Procedure A: changing inputs at X, widen to fixpoint ----------
    for (int i = 0; i < layout.num_inputs; ++i) {
      eval.input(i) = in_a[static_cast<std::size_t>(i)];
    }
    for (int n = 0; n < num_vars; ++n) {
      const std::uint64_t ones = code_a1[static_cast<std::size_t>(n)];
      eval.state(n) = {~ones, ones};
    }
    if (layout.has_fsv) eval.fsv() = kLanes0;
    const std::uint64_t overrun_a =
        run_to_fixpoint(layout, eval, /*widen_only=*/true, fsv_low, active);
    std::uint64_t any_x = 0;
    for (int n = 0; n < num_vars; ++n) {
      const std::size_t k = static_cast<std::size_t>(n);
      // Bits that move in the transition are allowed to go X.
      const std::uint64_t invariant = ~(code_a1[k] ^ code_b1[k]);
      const Lanes v = eval.state(n);
      went_x[k] = v.can0 & v.can1 & invariant & active;
      any_x |= went_x[k];
      report.procedure_a_violations += std::popcount(went_x[k]);
    }

    // ---- Procedure B: final inputs, narrow to fixpoint -----------------
    for (int i = 0; i < layout.num_inputs; ++i) {
      eval.input(i) = in_b[static_cast<std::size_t>(i)];
    }
    const std::uint64_t overrun_b =
        run_to_fixpoint(layout, eval, /*widen_only=*/false, fsv_low, active);
    std::uint64_t unresolved = 0;
    for (int n = 0; n < num_vars; ++n) {
      const std::uint64_t ones = code_b1[static_cast<std::size_t>(n)];
      const Lanes v = eval.state(n);
      unresolved |= (v.can1 ^ ones) | (v.can0 ^ ~ones);
    }
    unresolved &= active;
    report.procedure_b_violations += std::popcount(unresolved);
    report.fixpoint_overruns += std::popcount(overrun_a) + std::popcount(overrun_b);

    // Only the first failure is described; later ones only count.  A
    // transition's notes come in procedure order: A's overrun, A's X bits
    // from y0 up, B's overrun, B's verdict.
    const std::uint64_t failed = overrun_a | any_x | overrun_b | unresolved;
    if (!report.first_failure.empty() || failed == 0) continue;
    const int l = std::countr_zero(failed);
    const std::uint64_t bit = std::uint64_t{1} << l;
    const Transition& t = transitions[base + static_cast<std::size_t>(l)];
    std::ostringstream msg;
    if ((overrun_a & bit) != 0) {
      msg << "procedure A: widening did not converge";
    } else if ((any_x & bit) != 0) {
      int n = 0;
      while ((went_x[static_cast<std::size_t>(n)] & bit) == 0) ++n;
      msg << "procedure A: y" << n << " went X";
    } else if ((overrun_b & bit) != 0) {
      msg << "procedure B: settling did not converge";
    } else {
      msg << "procedure B: unresolved settling";
    }
    msg << " on " << table.state_name(t.s_a) << " col " << t.col_a << " -> "
        << t.col_b;
    report.first_failure = msg.str();
  }
  return report;
}

}  // namespace seance::sim::detail
