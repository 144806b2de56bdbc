// Cube / Cover: positional-cube representation of sum-of-products covers.
//
// A Cube is a product term over `num_vars` Boolean variables, stored as a
// (care, value) bit-pair: variable i appears as a literal iff bit i of
// `care` is set, with polarity given by bit i of `value`.  A Cover is a
// set of cubes interpreted as their OR.
//
// This is the Boolean substrate used throughout SEANCE (paper §5.2, §5.3):
// output/SSD/fsv/Y equations all start life as minterm covers and are
// reduced with the Quine-McCluskey engine in qm.hpp.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace seance::logic {

/// Maximum variable count supported by the minterm-indexed algorithms
/// (Quine-McCluskey, exhaustive equivalence checks).  SEANCE equations use
/// inputs + state variables + fsv, which stays far below this bound.
inline constexpr int kMaxVars = 24;

/// A minterm index: bit i holds the value of variable i.
using Minterm = std::uint32_t;

class Cube {
 public:
  /// Constructs the universal cube (no literals) over `num_vars` variables.
  explicit Cube(int num_vars);

  /// Constructs from explicit care/value masks.  Bits of `value` outside
  /// `care` are cleared so equality and hashing are canonical.
  Cube(int num_vars, std::uint32_t care, std::uint32_t value);

  /// The full-care cube equal to a single minterm.
  [[nodiscard]] static Cube from_minterm(int num_vars, Minterm m);

  /// Parses a positional string, character i = variable i: '0', '1', '-'.
  /// Throws std::invalid_argument on malformed input.
  [[nodiscard]] static Cube from_string(std::string_view text);

  [[nodiscard]] int num_vars() const { return num_vars_; }
  [[nodiscard]] std::uint32_t care() const { return care_; }
  [[nodiscard]] std::uint32_t value() const { return value_; }

  /// Number of literals (cared variables) in the product term.
  [[nodiscard]] int literal_count() const;

  /// True iff the minterm satisfies every literal.
  [[nodiscard]] bool contains(Minterm m) const {
    return ((m ^ value_) & care_) == 0;
  }

  /// True iff `other` is a sub-cube of this cube (set containment).
  [[nodiscard]] bool contains(const Cube& other) const;

  /// All minterms covered by the cube, in increasing order.
  [[nodiscard]] std::vector<Minterm> minterms() const;

  /// Positional string, character i = variable i.
  [[nodiscard]] std::string to_string() const;

  /// Canonical 64-bit key (care << 32 | value) for hashing/sorting.
  [[nodiscard]] std::uint64_t key() const {
    return (static_cast<std::uint64_t>(care_) << 32) | value_;
  }

  friend bool operator==(const Cube& a, const Cube& b) {
    return a.num_vars_ == b.num_vars_ && a.care_ == b.care_ && a.value_ == b.value_;
  }

 private:
  int num_vars_ = 0;
  std::uint32_t care_ = 0;
  std::uint32_t value_ = 0;
};

struct CubeHash {
  [[nodiscard]] std::size_t operator()(const Cube& c) const noexcept {
    // splitmix64 finalizer over the canonical key.
    std::uint64_t x = c.key() + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

class Cover {
 public:
  explicit Cover(int num_vars);
  Cover(int num_vars, std::vector<Cube> cubes);

  [[nodiscard]] int num_vars() const { return num_vars_; }
  [[nodiscard]] const std::vector<Cube>& cubes() const { return cubes_; }
  [[nodiscard]] std::size_t size() const { return cubes_.size(); }
  [[nodiscard]] bool empty() const { return cubes_.empty(); }

  void add(Cube c);

  /// OR of all cubes at the given minterm.
  [[nodiscard]] bool eval(Minterm m) const;

  /// True iff some single cube contains the whole sub-cube `c`
  /// (the classic static-hazard-freedom condition for a transition cube).
  [[nodiscard]] bool single_cube_contains(const Cube& c) const;

  /// Total literal count over all cubes.
  [[nodiscard]] int literal_count() const;

  /// Human-readable SOP using the given variable names (empty -> x0,x1,...).
  [[nodiscard]] std::string to_string(std::span<const std::string> names = {}) const;

 private:
  int num_vars_ = 0;
  std::vector<Cube> cubes_;
};

}  // namespace seance::logic
