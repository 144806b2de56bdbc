#include "oracles/checks.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>

namespace seance::logic {

std::vector<Minterm> on_set(const Cover& cover) {
  std::vector<Minterm> result;
  const std::uint32_t space_size = 1u << cover.num_vars();
  for (Minterm m = 0; m < space_size; ++m) {
    if (cover.eval(m)) result.push_back(m);
  }
  return result;
}

bool equals_function(const Cover& cover, std::span<const Minterm> on,
                     std::span<const Minterm> dc) {
  std::vector<char> allowed(1u << cover.num_vars(), 0);
  for (Minterm m : on) allowed[m] = 1;
  for (Minterm m : dc) allowed[m] = 1;
  for (Minterm m : on) {
    if (!cover.eval(m)) return false;
  }
  const std::uint32_t space_size = 1u << cover.num_vars();
  for (Minterm m = 0; m < space_size; ++m) {
    if (!allowed[m] && cover.eval(m)) return false;
  }
  return true;
}

bool is_prime_implicant(const Cube& c, int num_vars,
                        std::span<const Minterm> on,
                        std::span<const Minterm> dc) {
  std::vector<char> allowed(1u << num_vars, 0);
  for (Minterm m : on) allowed[m] = 1;
  for (Minterm m : dc) allowed[m] = 1;
  const auto implies = [&](const Cube& cube) {
    for (Minterm m : cube.minterms()) {
      if (!allowed[m]) return false;
    }
    return true;
  };
  if (!implies(c)) return false;
  // Enlarging by dropping any literal must leave the allowed region.
  for (int b = 0; b < num_vars; ++b) {
    const std::uint32_t bit = 1u << b;
    if (!(c.care() & bit)) continue;
    if (implies(Cube(num_vars, c.care() & ~bit, c.value() & ~bit))) return false;
  }
  return true;
}

bool is_irredundant(const Cover& cover, std::span<const Minterm> on) {
  for (std::size_t skip = 0; skip < cover.size(); ++skip) {
    bool some_uncovered = false;
    for (Minterm m : on) {
      bool covered = false;
      for (std::size_t i = 0; i < cover.size(); ++i) {
        if (i != skip && cover.cubes()[i].contains(m)) {
          covered = true;
          break;
        }
      }
      if (!covered && cover.cubes()[skip].contains(m)) {
        some_uncovered = true;
        break;
      }
    }
    if (!some_uncovered) return false;
  }
  return true;
}

Val3 eval3(const ExprPtr& e, std::span<const Val3> vals) {
  switch (e->op()) {
    case Op::kConst:
      return e->const_value() ? Val3::k1 : Val3::k0;
    case Op::kVar:
      return vals[static_cast<std::size_t>(e->var_index())];
    case Op::kNot:
      return not3(eval3(e->kids().front(), vals));
    case Op::kAnd: {
      Val3 v = Val3::k1;
      for (const ExprPtr& k : e->kids()) v = and3(v, eval3(k, vals));
      return v;
    }
    case Op::kOr: {
      Val3 v = Val3::k0;
      for (const ExprPtr& k : e->kids()) v = or3(v, eval3(k, vals));
      return v;
    }
    case Op::kNor: {
      Val3 v = Val3::k0;
      for (const ExprPtr& k : e->kids()) v = or3(v, eval3(k, vals));
      return not3(v);
    }
  }
  return Val3::kX;
}

bool ternary_transition_clean(const Cover& cover, Minterm from, Minterm to) {
  const int n = cover.num_vars();
  std::vector<Val3> vals(static_cast<std::size_t>(n));
  const std::uint32_t diff = from ^ to;
  for (int i = 0; i < n; ++i) {
    const std::uint32_t bit = 1u << i;
    if (diff & bit) {
      vals[static_cast<std::size_t>(i)] = Val3::kX;
    } else {
      vals[static_cast<std::size_t>(i)] = (from & bit) ? Val3::k1 : Val3::k0;
    }
  }
  const Val3 mid = eval3(cover, vals);
  const bool v_from = cover.eval(from);
  const bool v_to = cover.eval(to);
  if (v_from == v_to) {
    // Static transition: determinate ternary value means no glitch.
    if (mid != Val3::kX) return true;
    // A single cube spanning the whole transition sub-cube also suffices
    // for static-1 (and an empty intersection for static-0).
    if (v_from) {
      Cube span(n, ~diff & ((n >= 32) ? ~0u : ((1u << n) - 1u)), from & ~diff);
      return cover.single_cube_contains(span);
    }
    return false;
  }
  // Dynamic transition: accepted when determinate at X (monotone network).
  return mid != Val3::kX;
}

bool sic_static1_hazard_free(const Cover& cover) {
  const int n = cover.num_vars();
  const std::uint32_t space_size = 1u << n;
  for (Minterm m = 0; m < space_size; ++m) {
    if (!cover.eval(m)) continue;
    for (int b = 0; b < n; ++b) {
      const Minterm m2 = m ^ (1u << b);
      if (m2 < m) continue;  // each unordered pair once
      if (!cover.eval(m2)) continue;
      // Both endpoints ON: some cube must contain both.
      Cube pair_cube(n, ((n >= 32) ? ~0u : ((1u << n) - 1u)) & ~(1u << b),
                     m & ~(1u << b));
      if (!cover.single_cube_contains(pair_cube)) return false;
    }
  }
  return true;
}

bool equivalent_to_cover(const ExprPtr& e, const Cover& cover) {
  const int n = std::max(e->num_vars(), cover.num_vars());
  if (n > 20) throw std::invalid_argument("equivalent_to_cover: too many vars");
  const std::uint32_t space_size = 1u << n;
  for (std::uint32_t m = 0; m < space_size; ++m) {
    if (e->eval(m) != cover.eval(m)) return false;
  }
  return true;
}

bool is_first_level_gate_form(const ExprPtr& e) {
  switch (e->op()) {
    case Op::kConst:
    case Op::kVar:
      return true;
    case Op::kNot:
      return false;
    case Op::kNor:
      // A first-level NOR may only see raw variables.
      return std::all_of(e->kids().begin(), e->kids().end(),
                         [](const ExprPtr& k) { return k->op() == Op::kVar; });
    case Op::kAnd:
    case Op::kOr:
      return std::all_of(e->kids().begin(), e->kids().end(),
                         [](const ExprPtr& k) { return is_first_level_gate_form(k); });
  }
  return false;
}

}  // namespace seance::logic

namespace seance::minimize {

using flowtable::Entry;
using flowtable::FlowTable;

bool is_compatible_set(const FlowTable& /*table*/,
                       const std::vector<StateSet>& rows, StateSet set) {
  for (StateSet rest = set; rest != 0; rest &= rest - 1) {
    const int s = std::countr_zero(rest);
    if ((set & ~rows[static_cast<std::size_t>(s)]) != 0) return false;
  }
  return true;
}

bool is_closed_cover(const FlowTable& table, const std::vector<StateSet>& classes,
                     std::string* why) {
  StateSet covered = 0;
  for (StateSet c : classes) covered |= c;
  for (int s = 0; s < table.num_states(); ++s) {
    if (!(covered & (StateSet{1} << s))) {
      if (why != nullptr) *why = "state " + table.state_name(s) + " not covered";
      return false;
    }
  }
  for (StateSet c : classes) {
    for (int col = 0; col < table.num_columns(); ++col) {
      StateSet dest = 0;
      for (StateSet rest = c; rest != 0; rest &= rest - 1) {
        const int s = std::countr_zero(rest);
        const Entry& e = table.entry(s, col);
        if (e.specified()) dest |= StateSet{1} << e.next;
      }
      if (dest == 0) continue;
      const bool contained = std::any_of(classes.begin(), classes.end(),
                                         [&](StateSet k) { return (dest & ~k) == 0; });
      if (!contained) {
        if (why != nullptr) {
          *why = "implied class of column " + std::to_string(col) +
                 " not contained in any chosen class";
        }
        return false;
      }
    }
  }
  return true;
}

}  // namespace seance::minimize

namespace seance::assign {

bool separates(const Partition& p, const Dichotomy& d) {
  return ((d.a & ~p.zeros) == 0 && (d.b & ~p.ones) == 0) ||
         ((d.a & ~p.ones) == 0 && (d.b & ~p.zeros) == 0);
}

}  // namespace seance::assign
