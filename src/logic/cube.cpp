#include "logic/cube.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

namespace seance::logic {

namespace {

std::uint32_t mask_for(int num_vars) {
  return num_vars >= 32 ? 0xffffffffu : ((1u << num_vars) - 1u);
}

void check_num_vars(int num_vars) {
  if (num_vars < 0 || num_vars > kMaxVars) {
    throw std::invalid_argument("Cube: num_vars out of range [0, " +
                                std::to_string(kMaxVars) + "]: " +
                                std::to_string(num_vars));
  }
}

}  // namespace

Cube::Cube(int num_vars) : num_vars_(num_vars) { check_num_vars(num_vars); }

Cube::Cube(int num_vars, std::uint32_t care, std::uint32_t value)
    : num_vars_(num_vars) {
  check_num_vars(num_vars);
  care_ = care & mask_for(num_vars);
  value_ = value & care_;
}

Cube Cube::from_minterm(int num_vars, Minterm m) {
  return Cube(num_vars, mask_for(num_vars), m);
}

Cube Cube::from_string(std::string_view text) {
  const int n = static_cast<int>(text.size());
  check_num_vars(n);
  std::uint32_t care = 0;
  std::uint32_t value = 0;
  for (int i = 0; i < n; ++i) {
    switch (text[i]) {
      case '0':
        care |= 1u << i;
        break;
      case '1':
        care |= 1u << i;
        value |= 1u << i;
        break;
      case '-':
        break;
      default:
        throw std::invalid_argument("Cube::from_string: bad character '" +
                                    std::string(1, text[i]) + "'");
    }
  }
  return Cube(n, care, value);
}

int Cube::literal_count() const { return std::popcount(care_); }

bool Cube::contains(const Cube& other) const {
  // Every literal of this cube must be a literal of `other` with the same
  // polarity; `other` may constrain additional variables.
  return (care_ & ~other.care_) == 0 && ((value_ ^ other.value_) & care_) == 0;
}

std::vector<Minterm> Cube::minterms() const {
  std::vector<Minterm> result;
  const std::uint32_t space = mask_for(num_vars_);
  const std::uint32_t free = space & ~care_;
  result.reserve(1u << std::popcount(free));
  // Enumerate all subsets of the free mask (standard subset-walk idiom).
  std::uint32_t sub = 0;
  while (true) {
    result.push_back(value_ | sub);
    if (sub == free) break;
    sub = (sub - free) & free;
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::string Cube::to_string() const {
  std::string s(static_cast<std::size_t>(num_vars_), '-');
  for (int i = 0; i < num_vars_; ++i) {
    if (care_ & (1u << i)) s[static_cast<std::size_t>(i)] = (value_ & (1u << i)) ? '1' : '0';
  }
  return s;
}

Cover::Cover(int num_vars) : num_vars_(num_vars) { check_num_vars(num_vars); }

Cover::Cover(int num_vars, std::vector<Cube> cubes)
    : num_vars_(num_vars), cubes_(std::move(cubes)) {
  check_num_vars(num_vars);
  for (const Cube& c : cubes_) {
    if (c.num_vars() != num_vars_) {
      throw std::invalid_argument("Cover: cube arity mismatch");
    }
  }
}

void Cover::add(Cube c) {
  if (c.num_vars() != num_vars_) {
    throw std::invalid_argument("Cover::add: cube arity mismatch");
  }
  cubes_.push_back(c);
}

bool Cover::eval(Minterm m) const {
  return std::any_of(cubes_.begin(), cubes_.end(),
                     [m](const Cube& c) { return c.contains(m); });
}

bool Cover::single_cube_contains(const Cube& c) const {
  return std::any_of(cubes_.begin(), cubes_.end(),
                     [&c](const Cube& cube) { return cube.contains(c); });
}

int Cover::literal_count() const {
  int total = 0;
  for (const Cube& c : cubes_) total += c.literal_count();
  return total;
}

std::string Cover::to_string(std::span<const std::string> names) const {
  if (cubes_.empty()) return "0";
  std::ostringstream out;
  bool first_term = true;
  for (const Cube& c : cubes_) {
    if (!first_term) out << " + ";
    first_term = false;
    if (c.literal_count() == 0) {
      out << "1";
      continue;
    }
    bool first_lit = true;
    for (int i = 0; i < num_vars_; ++i) {
      if (!(c.care() & (1u << i))) continue;
      if (!first_lit) out << "*";
      first_lit = false;
      if (static_cast<std::size_t>(i) < names.size()) {
        out << names[static_cast<std::size_t>(i)];
      } else {
        out << "x" << i;
      }
      if (!(c.value() & (1u << i))) out << "'";
    }
  }
  return out.str();
}

}  // namespace seance::logic
