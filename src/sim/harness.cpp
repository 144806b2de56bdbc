#include "sim/harness.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace seance::sim {

using flowtable::Entry;
using flowtable::Trit;

namespace {

netlist::Netlist build(const core::FantomMachine& machine, netlist::FantomNets* nets) {
  netlist::Netlist n;
  *nets = netlist::build_fantom(machine, n);
  return n;
}

}  // namespace

FantomHarness::FantomHarness(const core::FantomMachine& machine,
                             const HarnessOptions& options)
    : machine_(machine),
      options_(options),
      netlist_(build(machine, &nets_)),
      sim_(netlist_, options.delays),
      rng_(options.seed) {
  // Critical path 3 of §4.3 demands t_Z + t_setup < t_VOM: the output
  // network must be faster than the completion-detection path.  The paper
  // obtains this by construction ("the relationship for critical path 2
  // subsumes critical path 3"); we encode the same design rule in the
  // delay assignment: Z-cone gates run at the fast end of the delay
  // range, the SSD cone and gate A at the slow end.  The Y and fsv cones
  // keep their arbitrary random delays — they carry the hazard dynamics
  // the experiments probe.
  for (int g = nets_.z_range.begin; g < nets_.z_range.end; ++g) {
    sim_.set_gate_delay(g, options.delays.min_gate_delay);
  }
  for (int g = nets_.ssd_range.begin; g < nets_.ssd_range.end; ++g) {
    sim_.set_gate_delay(g, options.delays.max_gate_delay);
  }
  // Critical path 4 and the essential-hazard condition (§2.2): the input
  // skew (line delays) must be smaller than the fsv feedback loop, or fsv
  // could assert *during* a transient intermediate vector and launch the
  // machine through its hazard state ("at most two state changes").  The
  // fsv cone therefore also runs at the slow end of the range.
  for (int g = nets_.fsv_range.begin; g < nets_.fsv_range.end; ++g) {
    sim_.set_gate_delay(g, options.delays.max_gate_delay);
  }
  sim_.set_gate_delay(nets_.nor_g_fsv, options.delays.max_gate_delay);
  sim_.set_gate_delay(nets_.vom, options.delays.max_gate_delay);
}

bool FantomHarness::reset(int state, int column) {
  if (!machine_.table.is_stable(state, column)) {
    throw std::invalid_argument("reset: not a stable total state");
  }
  const std::uint32_t code = machine_.codes[static_cast<std::size_t>(state)];
  for (std::size_t i = 0; i < nets_.x.size(); ++i) {
    sim_.force(nets_.x[i], (static_cast<std::uint32_t>(column) >> i) & 1u);
  }
  sim_.force(nets_.g, false);
  for (std::size_t n = 0; n < nets_.y.size(); ++n) {
    sim_.force_internal(nets_.y[n], (code >> n) & 1u);
  }
  const bool fixpoint = sim_.settle_combinational();
  const bool settled =
      fixpoint && sim_.stabilize(sim_.now() + options_.settle_budget);
  state_ = state;
  column_ = column;
  // The parked point must be self-consistent: y sticks at the code.
  std::uint32_t observed = 0;
  for (std::size_t n = 0; n < nets_.y.size(); ++n) {
    observed |= static_cast<std::uint32_t>(sim_.value(nets_.y[n])) << n;
  }
  return settled && observed == code;
}

StepResult FantomHarness::apply_column(int new_column) {
  std::vector<Time> offsets(nets_.x.size(), 0);
  for (Time& t : offsets) {
    t = options_.max_skew == 0 ? 0 : (rng_() % (options_.max_skew + 1));
  }
  return apply_column_with_skew(new_column, offsets);
}

StepResult FantomHarness::apply_column_with_skew(int new_column,
                                                 const std::vector<Time>& offsets) {
  StepResult result;
  if (state_ < 0) return result;  // lost state after a failure: caller must reset
  const Entry& entry = machine_.table.entry(state_, new_column);
  if (!entry.specified()) return result;
  result.applied = true;
  result.expected_state = entry.next;
  result.mic = std::popcount(static_cast<unsigned>(column_ ^ new_column)) > 1;

  sim_.reset_counters();
  const Time t0 = sim_.now() + 2;
  const Time vom_before = sim_.last_change(nets_.vom);

  // G rises (VI and VOM both seen by the G latch); VOM will drop.
  sim_.set_input(nets_.g, true, t0);
  // FFX presents the new vector; each bit reaches the logic after its own
  // line delay.
  Time max_offset = 0;
  for (std::size_t i = 0; i < nets_.x.size(); ++i) {
    const bool newv = (static_cast<std::uint32_t>(new_column) >> i) & 1u;
    const bool oldv = (static_cast<std::uint32_t>(column_) >> i) & 1u;
    if (newv != oldv) {
      const Time offset = i < offsets.size() ? offsets[i] : 0;
      max_offset = std::max(max_offset, offset);
      sim_.set_input(nets_.x[i], newv, t0 + 1 + offset);
    }
  }
  // G falls once the inputs have surely reached the first gate level
  // (the t_G constraint of critical path 4).
  sim_.set_input(nets_.g, false, t0 + 2 + max_offset + options_.delays.max_gate_delay);

  result.quiescent = sim_.run(sim_.now() + options_.settle_budget);
  result.vom = sim_.value(nets_.vom);

  for (std::size_t n = 0; n < nets_.y.size(); ++n) {
    result.observed_code |= static_cast<std::uint32_t>(sim_.value(nets_.y[n])) << n;
  }
  const std::uint32_t expected_code =
      machine_.codes[static_cast<std::size_t>(entry.next)];
  result.state_correct = result.observed_code == expected_code;

  // FFZ check: latched outputs (Z nets at the VOM edge; since the network
  // is quiescent the present values are the latched values provided setup
  // held) against the stable entry's specified bits.
  result.outputs_correct = true;
  const Entry& dest = machine_.table.entry(entry.next, new_column);
  for (std::size_t k = 0; k < nets_.z.size(); ++k) {
    const Trit want = dest.outputs[k];
    if (want == Trit::kDC) continue;
    if (sim_.value(nets_.z[k]) != (want == Trit::k1)) result.outputs_correct = false;
  }
  // Setup: every Z net settled strictly before the final VOM rise.
  const Time vom_edge = sim_.last_change(nets_.vom);
  result.setup_ok = result.vom && vom_edge > vom_before;
  for (std::size_t k = 0; k < nets_.z.size(); ++k) {
    if (sim_.change_count(nets_.z[k]) > 0 && sim_.last_change(nets_.z[k]) >= vom_edge) {
      result.setup_ok = false;
    }
    // SOC accounting: each output bit may change at most once per step.
    result.z_glitches += std::max(0, sim_.change_count(nets_.z[k]) - 1);
  }

  column_ = new_column;
  state_ = result.state_correct ? entry.next : -1;
  return result;
}

FantomHarness::WalkSummary FantomHarness::random_walk(int steps, std::uint64_t seed,
                                                      bool prefer_mic) {
  std::mt19937_64 rng(seed);
  WalkSummary summary;
  const flowtable::FlowTable& table = machine_.table;
  for (int i = 0; i < steps; ++i) {
    ++summary.steps;
    if (state_ < 0) {
      // Recover from a failure: park at the first stable total state.
      for (int s = 0; s < table.num_states() && state_ < 0; ++s) {
        const auto cols = table.stable_columns(s);
        if (!cols.empty() && reset(s, cols.front())) {
          state_ = s;
        }
      }
      if (state_ < 0) break;
    }
    // Candidate next columns: specified entries of the current row.
    std::vector<int> candidates;
    std::vector<int> mic_candidates;
    for (int c = 0; c < table.num_columns(); ++c) {
      if (c == column_) continue;
      if (!table.entry(state_, c).specified()) continue;
      candidates.push_back(c);
      if (std::popcount(static_cast<unsigned>(c ^ column_)) > 1) {
        mic_candidates.push_back(c);
      }
    }
    if (candidates.empty()) {
      state_ = -1;  // dead end; re-park next iteration
      continue;
    }
    const std::vector<int>& pool =
        (prefer_mic && !mic_candidates.empty() && (rng() % 4) != 0) ? mic_candidates
                                                                    : candidates;
    const int next = pool[rng() % pool.size()];
    const StepResult step = apply_column(next);
    if (!step.applied) continue;
    ++summary.applied;
    if (step.mic) ++summary.mic_steps;
    summary.z_glitches += step.z_glitches;
    if (!step.ok()) {
      ++summary.failures;
      if (!step.quiescent) ++summary.fail_quiescent;
      if (!step.vom) ++summary.fail_vom;
      if (!step.state_correct) ++summary.fail_state;
      if (!step.outputs_correct) ++summary.fail_outputs;
      if (!step.setup_ok) ++summary.fail_setup;
      state_ = -1;
    }
  }
  return summary;
}

}  // namespace seance::sim
