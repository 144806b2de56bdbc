// FANTOM handshake harness — the environment of Fig. 1.
//
// Plays the role of the previous/next stage: raises G when new inputs are
// valid (VI) and the machine reported completion (VOM), lets the new
// input vector reach the logic with arbitrary per-bit line-delay skew,
// drops G, and waits for VOM to assert again.  FFZ is modelled as the
// observation of the Z nets at the VOM rising edge, including a setup
// check (critical path 3 of §4.3: outputs must be stable before VOM).
//
// The same harness drives FANTOM and baseline (fsv-less) machines, which
// is how the ablation experiments measure hazard manifestation.

#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/synthesize.hpp"
#include "netlist/netlist.hpp"
#include "sim/gatesim.hpp"

namespace seance::sim {

struct HarnessOptions {
  DelayOptions delays;
  /// Maximum line-delay skew between arriving input bits.  The paper's
  /// essential-hazard condition requires max line delay < min loop delay;
  /// pushing this past the loop delay breaks any machine.
  Time max_skew = 4;
  /// Budget for one handshake to reach quiescence.
  Time settle_budget = 100000;
  std::uint64_t seed = 7;
};

struct StepResult {
  bool applied = false;      ///< entry was specified; step executed
  bool quiescent = false;    ///< network settled within budget
  bool vom = false;          ///< VOM asserted after settling
  bool state_correct = false;
  bool outputs_correct = false;
  bool setup_ok = false;     ///< Z stable strictly before the VOM edge
  bool mic = false;          ///< multiple-input change step
  int expected_state = -1;
  std::uint32_t observed_code = 0;
  int z_glitches = 0;  ///< extra transitions on Z nets beyond the single
                       ///< allowed change (SOC accounting)

  [[nodiscard]] bool ok() const {
    return applied && quiescent && vom && state_correct && outputs_correct && setup_ok;
  }
};

class FantomHarness {
 public:
  FantomHarness(const core::FantomMachine& machine, const HarnessOptions& options);

  /// Settles the machine at a stable total state.  Returns false if the
  /// network would not stabilize there.
  bool reset(int state, int column);

  /// One handshake driving the inputs to `new_column` with random skew.
  StepResult apply_column(int new_column);

  /// Same, with explicit per-input arrival offsets (adversarial tests).
  StepResult apply_column_with_skew(int new_column, const std::vector<Time>& offsets);

  [[nodiscard]] int current_state() const { return state_; }
  [[nodiscard]] const netlist::Netlist& net() const { return netlist_; }

  struct WalkSummary {
    int steps = 0;
    int applied = 0;
    int mic_steps = 0;
    int failures = 0;
    int z_glitches = 0;
    // Failure breakdown (a step can contribute to several).
    int fail_quiescent = 0;
    int fail_vom = 0;
    int fail_state = 0;
    int fail_outputs = 0;
    int fail_setup = 0;
  };
  /// Random walk over specified transitions; resets after a failure.
  WalkSummary random_walk(int steps, std::uint64_t seed, bool prefer_mic = true);

 private:
  const core::FantomMachine& machine_;
  HarnessOptions options_;
  // nets_ must be constructed before netlist_: the netlist builder fills
  // nets_ as a side effect of the netlist_ member initializer.
  netlist::FantomNets nets_;
  netlist::Netlist netlist_;
  GateSim sim_;
  std::mt19937_64 rng_;
  int state_ = 0;
  int column_ = 0;
};

}  // namespace seance::sim
