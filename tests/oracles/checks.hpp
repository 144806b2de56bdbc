// Check oracles: by-definition predicates the suites hold the production
// engines against — prime and irredundant covers, exact functions,
// Eichelberger transition checks, expression equivalence and gate form,
// compatible sets, closed covers and separating partitions.  Most are exhaustive over the
// 2^num_vars minterm space.  Test code only: no pipeline stage calls
// them, so they live beside the seed-path oracles.

#pragma once

#include <span>
#include <string>
#include <vector>

#include "assign/ustt.hpp"
#include "flowtable/table.hpp"
#include "logic/cube.hpp"
#include "logic/expr.hpp"
#include "logic/ternary.hpp"
#include "minimize/reduce.hpp"

namespace seance::logic {

/// Every ON-set minterm of the cover, in increasing order.
[[nodiscard]] std::vector<Minterm> on_set(const Cover& cover);

/// Exact functional check: the cover holds every minterm of `on` and
/// nothing outside on ∪ dc.
[[nodiscard]] bool equals_function(const Cover& cover,
                                   std::span<const Minterm> on,
                                   std::span<const Minterm> dc);

/// True iff `c` is a prime implicant of the function (c covers only
/// on ∪ dc, and no single-literal enlargement of c still does).
[[nodiscard]] bool is_prime_implicant(const Cube& c, int num_vars,
                                      std::span<const Minterm> on,
                                      std::span<const Minterm> dc);

/// True iff removing any cube from the cover uncovers some ON minterm.
[[nodiscard]] bool is_irredundant(const Cover& cover,
                                  std::span<const Minterm> on);

/// Ternary value of an expression tree.
[[nodiscard]] Val3 eval3(const ExprPtr& e, std::span<const Val3> vals);

/// Eichelberger static check for the input transition `from` -> `to`:
/// variables that differ are driven to X.  Returns true iff the cover
/// cannot glitch during the transition:
///  * static transitions (f(from) == f(to)) must evaluate determinate;
///  * dynamic transitions are conservatively accepted only when the
///    ternary value is determinate or the function is single-cube-monotone
///    over the transition cube (no 1-0-1 / 0-1-0 excursion possible).
[[nodiscard]] bool ternary_transition_clean(const Cover& cover, Minterm from,
                                            Minterm to);

/// Static-1 hazard freedom for all single-variable moves inside the ON-set:
/// true iff every pair of adjacent ON minterms lies in a single cube.
/// This is the guarantee the paper buys by keeping *all* prime implicants
/// in the fsv cover (paper §5.3 step 7).
[[nodiscard]] bool sic_static1_hazard_free(const Cover& cover);

/// Exhaustive equivalence check against a cover over the same variables.
[[nodiscard]] bool equivalent_to_cover(const ExprPtr& e, const Cover& cover);

/// True iff every first-level (depth-1-from-leaf) gate input is an
/// uncomplemented variable, i.e. the tree contains no NOT nodes and no
/// NOR whose children are themselves gates fed by complemented inputs.
[[nodiscard]] bool is_first_level_gate_form(const ExprPtr& e);

}  // namespace seance::logic

namespace seance::minimize {

/// True iff all states in `set` are pairwise compatible.
[[nodiscard]] bool is_compatible_set(const flowtable::FlowTable& table,
                                     const std::vector<StateSet>& rows,
                                     StateSet set);

/// Checks that `classes` is a closed cover of the table (every state
/// covered, every implied class inside some chosen class); fills `why` on
/// failure.
[[nodiscard]] bool is_closed_cover(const flowtable::FlowTable& table,
                                   const std::vector<StateSet>& classes,
                                   std::string* why = nullptr);

}  // namespace seance::minimize

namespace seance::assign {

/// True iff the partition separates the dichotomy (a on one side, b on the
/// other).
[[nodiscard]] bool separates(const Partition& p, const Dichotomy& d);

}  // namespace seance::assign
