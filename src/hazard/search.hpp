// Function M-hazard search — the paper's Fig. 4 algorithm.
//
// For every "stable-state transition" (start in stable total state
// (x^a, s_a), move horizontally to input column x^b, then vertically to
// the stable successor s_b) whose input change flips more than one bit,
// the inputs transiently pass through intermediate vectors x^k strictly
// inside the transition sub-cube.  A state variable n that should remain
// *invariant* over the transition (code(s_a)_n == code(s_b)_n) but whose
// next-state function value at (x^k, y^a) differs suffers a function
// M-hazard there.  The algorithm collects those total states into
// per-variable hazard lists HL_n and the union list FL that defines fsv.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flowtable/table.hpp"

namespace seance::hazard {

/// A flow table together with its USTT row codes.
struct EncodedTable {
  const flowtable::FlowTable* table = nullptr;
  std::vector<std::uint32_t> codes;  ///< codes[state], bit v = variable v
  int num_state_vars = 0;
};

/// A total state (input column, internal state row).
struct TotalState {
  int column = 0;
  int state = 0;

  friend bool operator==(const TotalState&, const TotalState&) = default;
  friend auto operator<=>(const TotalState&, const TotalState&) = default;
};

struct HazardSearchStats {
  std::size_t stable_transitions = 0;      ///< transitions traversed
  std::size_t mic_transitions = 0;         ///< with Hamming distance > 1
  std::size_t intermediate_points = 0;     ///< x^k points examined
  std::size_t hazard_hits = 0;             ///< (point, variable) hits
};

struct HazardLists {
  /// HL_n: hazardous total states per state variable (sorted, unique).
  std::vector<std::vector<TotalState>> per_var;
  /// FL: union of all HL_n (sorted, unique) — the ON-set of fsv.
  std::vector<TotalState> fl;
  /// Total states visited as MIC intermediates whose table entry is
  /// unspecified; SEANCE fills these to *hold* the present state.
  std::vector<TotalState> hold_filled;
  HazardSearchStats stats;
};

/// Runs the Fig. 4 search over every stable-state transition of the table.
/// The table must be normal-mode.  The paper's `notinvariant` primitive is
/// one mask operation inside the loop: the state variables that must hold
/// across s_a -> s_b but move at (x^k, y^a), all tested at once.
[[nodiscard]] HazardLists find_hazards(const EncodedTable& encoded);

[[nodiscard]] std::string to_string(const HazardLists& lists,
                                    const flowtable::FlowTable& table);

}  // namespace seance::hazard
