// Ternary (0/1/X) evaluation — Eichelberger's hazard-detection algebra.
//
// The paper cites Eichelberger [5] for hazard classification.  A SOP cover
// is free of a static hazard for an input transition iff its ternary value
// with the changing variables at X is determinate.  The simulator's
// static checks (src/sim) evaluate covers in this algebra, and
// make_sic_static1_hazard_free is the consensus repair of the Y covers.

#pragma once

#include <span>

#include "logic/cube.hpp"

namespace seance::logic {

enum class Val3 : std::uint8_t { k0 = 0, k1 = 1, kX = 2 };

[[nodiscard]] Val3 and3(Val3 a, Val3 b);
[[nodiscard]] Val3 or3(Val3 a, Val3 b);
[[nodiscard]] Val3 not3(Val3 a);

/// Ternary value of a cover with variable i bound to `vals[i]`.
[[nodiscard]] Val3 eval3(const Cover& cover, std::span<const Val3> vals);

/// Adds consensus implicants (paper §2.1: "adding consensus gates") until
/// the cover is static-1 hazard-free for single-variable moves.  The
/// cover's ON-set is taken as the exact function (don't-cares were
/// resolved when the cover was selected); each added cube is an implicant
/// of that function, greedily enlarged toward a prime.  Returns the
/// number of cubes added.
int make_sic_static1_hazard_free(Cover& cover);

}  // namespace seance::logic
