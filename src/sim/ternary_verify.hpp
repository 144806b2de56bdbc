// Static hazard verification by Eichelberger's ternary procedure [5].
//
// Complements the event-driven simulator with a delay-independent check:
// for every stable-state transition of a synthesized machine,
//   Procedure A drives the changing inputs to X and iterates the
//   feedback functions to a ternary fixpoint — any state variable that
//   is supposed to stay invariant must remain at its binary value
//   (X here = a function M-hazard some delay assignment can realize);
//   Procedure B then applies the final input vector and iterates again —
//   the machine must resolve to exactly the destination code.
//
// Because ternary evaluation abstracts *all* delay assignments at once,
// a PASS here is stronger than any number of simulated walks; the paper's
// fsv=0 hold semantics is precisely what makes Procedure A succeed on
// FANTOM machines.

#pragma once

#include <string>

#include "core/synthesize.hpp"
#include "logic/ternary.hpp"

namespace seance::sim {

struct TernaryReport {
  int transitions_checked = 0;
  /// Invariant state bits that went to X during Procedure A (function
  /// M-hazards reachable under some delay assignment).
  int procedure_a_violations = 0;
  /// Transitions whose Procedure-B fixpoint is not exactly the
  /// destination code (critical race / undetermined settling).
  int procedure_b_violations = 0;
  /// Fixpoint iterations that exhausted their bound without converging
  /// (Procedure B can oscillate on a machine whose feedback is unstable
  /// under the final input vector; Procedure A is monotone and cannot).
  /// A non-zero count means the analysis of those transitions is
  /// unsound, so clean() reports false.
  int fixpoint_overruns = 0;
  std::string first_failure;  ///< human-readable description, empty if clean

  [[nodiscard]] bool clean() const {
    return procedure_a_violations == 0 && procedure_b_violations == 0 &&
           fixpoint_overruns == 0;
  }
};

/// Runs both procedures over every specified stable-state transition.
/// `fsv_low` pins fsv to 0 during Procedure A (the protection window —
/// the paper's timing discipline keeps fsv low for the duration of the
/// input transient); when false fsv is evaluated ternarily as well.
[[nodiscard]] TernaryReport ternary_verify(const core::FantomMachine& machine,
                                           bool fsv_low = true);

}  // namespace seance::sim
