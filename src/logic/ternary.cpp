#include "logic/ternary.hpp"

#include <vector>

namespace seance::logic {

Val3 and3(Val3 a, Val3 b) {
  if (a == Val3::k0 || b == Val3::k0) return Val3::k0;
  if (a == Val3::k1 && b == Val3::k1) return Val3::k1;
  return Val3::kX;
}

Val3 or3(Val3 a, Val3 b) {
  if (a == Val3::k1 || b == Val3::k1) return Val3::k1;
  if (a == Val3::k0 && b == Val3::k0) return Val3::k0;
  return Val3::kX;
}

Val3 not3(Val3 a) {
  switch (a) {
    case Val3::k0:
      return Val3::k1;
    case Val3::k1:
      return Val3::k0;
    case Val3::kX:
      return Val3::kX;
  }
  return Val3::kX;
}

Val3 eval3(const Cover& cover, std::span<const Val3> vals) {
  Val3 result = Val3::k0;
  for (const Cube& c : cover.cubes()) {
    Val3 term = Val3::k1;
    for (int i = 0; i < cover.num_vars(); ++i) {
      const std::uint32_t bit = 1u << i;
      if (!(c.care() & bit)) continue;
      const Val3 v = vals[static_cast<std::size_t>(i)];
      term = and3(term, (c.value() & bit) ? v : not3(v));
      if (term == Val3::k0) break;
    }
    result = or3(result, term);
    if (result == Val3::k1) return result;
  }
  return result;
}

int make_sic_static1_hazard_free(Cover& cover) {
  const int n = cover.num_vars();
  const std::uint32_t space_size = 1u << n;
  // Materialize the exact function once.
  std::vector<char> on(space_size, 0);
  for (Minterm m = 0; m < space_size; ++m) on[m] = cover.eval(m) ? 1 : 0;
  const auto implies = [&](const Cube& c) {
    for (Minterm m : c.minterms()) {
      if (!on[m]) return false;
    }
    return true;
  };
  int added = 0;
  for (Minterm m = 0; m < space_size; ++m) {
    if (!on[m]) continue;
    for (int b = 0; b < n; ++b) {
      const Minterm m2 = m ^ (1u << b);
      if (m2 < m || !on[m2]) continue;
      const std::uint32_t full = (n >= 32) ? ~0u : ((1u << n) - 1u);
      Cube pair(n, full & ~(1u << b), m & ~(1u << b));
      if (cover.single_cube_contains(pair)) continue;
      // Enlarge the pair cube toward a prime implicant of the function.
      for (int drop = 0; drop < n; ++drop) {
        const std::uint32_t bit = 1u << drop;
        if (!(pair.care() & bit)) continue;
        Cube bigger(n, pair.care() & ~bit, pair.value() & ~bit);
        if (implies(bigger)) pair = bigger;
      }
      cover.add(pair);
      ++added;
    }
  }
  return added;
}

}  // namespace seance::logic
