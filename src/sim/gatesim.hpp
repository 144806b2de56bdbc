// Event-driven gate-level simulator with inertial delays.
//
// The paper argues FANTOM's hazard freedom analytically; we check it
// *experimentally*: every gate gets an arbitrary (seeded-random) delay in
// keeping with the extended SI model's "unbounded but finite" gate
// delays, input bits of a multiple-input change arrive with arbitrary
// skew (line delays), and the simulator propagates events until
// quiescence.  Inertial delay semantics: a gate output that is scheduled
// to change and then re-evaluates back to its present value swallows the
// pulse — the standard model for logic gates with finite drive.

#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "netlist/netlist.hpp"

namespace seance::sim {

using Time = std::uint64_t;

struct DelayOptions {
  Time min_gate_delay = 1;
  Time max_gate_delay = 3;
  std::uint64_t seed = 1;
};

class GateSim {
 public:
  GateSim(const netlist::Netlist& netlist, const DelayOptions& delays);

  /// Sets an INPUT net immediately (no event, no delay); used for reset.
  void force(int net, bool value);
  /// Forces any net's present value during initialization (feedback seed).
  void force_internal(int net, bool value);
  /// Schedules an INPUT net change at absolute time `at`.
  void set_input(int net, bool value, Time at);

  /// Runs until no events remain or `deadline` passes.  Returns true on
  /// quiescence, false when the deadline was hit (oscillation or
  /// unfinished activity).
  bool run(Time deadline);

  /// Re-evaluates every gate against current net values and runs to
  /// quiescence; used after force()/force_internal() initialization.
  bool stabilize(Time deadline);

  /// Zero-delay fixpoint evaluation: repeatedly recomputes every gate's
  /// steady value in place (no events, no counters) until nothing changes
  /// or the pass budget runs out.  Used at reset so initialization
  /// transients cannot race through the state feedback.  Returns true on
  /// a fixpoint.
  bool settle_combinational(int max_passes = 64);

  /// Overrides one gate's delay.  The harness uses this on gate A (VOM) to
  /// model the paper's critical-path-3 design constraint: the completion
  /// path must be slower than the output logic (t_Z + t_setup < t_VOM).
  void set_gate_delay(int net, Time delay) {
    gate_delay_.at(static_cast<std::size_t>(net)) = delay;
  }

  [[nodiscard]] bool value(int net) const { return nets_[static_cast<std::size_t>(net)].value; }
  [[nodiscard]] Time now() const { return now_; }
  /// Time of the most recent committed change on the net.
  [[nodiscard]] Time last_change(int net) const {
    return nets_[static_cast<std::size_t>(net)].last_change;
  }
  /// Committed value changes on the net since the last reset_counters().
  [[nodiscard]] int change_count(int net) const {
    return nets_[static_cast<std::size_t>(net)].changes;
  }
  void reset_counters();
 private:
  struct Net {
    bool value = false;
    Time last_change = 0;
    int changes = 0;
    // At most one pending transition per net (inertial model).
    bool has_pending = false;
    bool pending_value = false;
    Time pending_time = 0;
    std::uint64_t pending_seq = 0;
  };
  struct Event {
    Time time = 0;
    int net = 0;
    std::uint64_t seq = 0;
    /// Input edges use transport semantics (an applied stimulus cannot be
    /// swallowed by a later one); gate events are inertial via the per-net
    /// pending slot.
    bool input_edge = false;
    bool input_value = false;
    friend bool operator>(const Event& a, const Event& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void evaluate_fanout(int net, Time at);
  [[nodiscard]] bool gate_value(int gate) const;
  void schedule(int net, bool value, Time at);

  const netlist::Netlist& netlist_;
  std::vector<Net> nets_;
  std::vector<Time> gate_delay_;
  std::vector<std::vector<int>> fanout_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  Time now_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace seance::sim
