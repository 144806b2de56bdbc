// Seed implementation of state minimization, retained as the differential
// oracle for the packed-word engine in reduce.hpp (the same role
// oracles/qm_reference.hpp plays for the covering engine).
//
// The algorithms are the original O(n²·columns)-per-sweep pair-chart
// fixpoint, the level-by-level subset generation of prime compatibles,
// and the recompute-from-scratch closed-cover branch and bound — with two
// hot-path bugfixes folded in (first_unmet was computed twice per node,
// and membership in the chosen stack was a linear std::find per candidate
// prime).  The fixes do not change the search tree: the node accounting
// in ReductionResult::cover_nodes is pinned against the bitset engine by
// tests/test_minimize_equivalence.cpp and against literal values in
// tests/test_minimize.cpp.

#pragma once

#include <vector>

#include "minimize/reduce.hpp"

namespace seance::minimize {

/// Symmetric pair-compatibility matrix via the classic pair-chart
/// fixpoint: a pair is compatible iff outputs never conflict and every
/// implied pair is compatible.
[[nodiscard]] std::vector<std::vector<char>> reference_compatible_pairs(
    const flowtable::FlowTable& table);

/// True iff all states in `set` are pairwise compatible.
[[nodiscard]] bool reference_is_compatible_set(
    const flowtable::FlowTable& table,
    const std::vector<std::vector<char>>& pairs, StateSet set);

/// Maximal compatibles (maximal cliques of the pair-compatibility graph).
[[nodiscard]] std::vector<StateSet> reference_maximal_compatibles(
    const flowtable::FlowTable& table,
    const std::vector<std::vector<char>>& pairs);

/// Prime compatibles via per-size candidate lists with sort+unique dedup
/// and eagerly computed implied classes.
[[nodiscard]] std::vector<PrimeCompatible> reference_prime_compatibles(
    const flowtable::FlowTable& table,
    const std::vector<std::vector<char>>& pairs);

/// Full seed-path minimization.  Same contract as reduce(), and
/// result-identical to it: the two engines visit the same prime list in
/// the same order and make the same branching decisions, so the
/// equivalence suite asserts the chosen classes, state mapping, search
/// tree size, and pair chart are all equal — not merely equivalent.
[[nodiscard]] ReductionResult reference_reduce(const flowtable::FlowTable& table,
                                               const ReduceOptions& options = {});

}  // namespace seance::minimize
