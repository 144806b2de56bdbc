#include "sim/gatesim.hpp"

#include <random>
#include <stdexcept>

namespace seance::sim {

using netlist::GateKind;

GateSim::GateSim(const netlist::Netlist& netlist, const DelayOptions& delays)
    : netlist_(netlist) {
  const int n = netlist.size();
  nets_.resize(static_cast<std::size_t>(n));
  gate_delay_.resize(static_cast<std::size_t>(n), 0);
  fanout_.resize(static_cast<std::size_t>(n));
  std::mt19937_64 rng(delays.seed);
  std::uniform_int_distribution<Time> dist(delays.min_gate_delay, delays.max_gate_delay);
  for (int i = 0; i < n; ++i) {
    const netlist::Gate& g = netlist.gates()[static_cast<std::size_t>(i)];
    if (g.kind != GateKind::kInput && g.kind != GateKind::kConst) {
      // BUFs model wires: zero delay keeps the feedback path free of
      // inserted delay elements, as the extended SI model requires.
      gate_delay_[static_cast<std::size_t>(i)] = (g.kind == GateKind::kBuf) ? 0 : dist(rng);
    }
    if (g.kind == GateKind::kConst) nets_[static_cast<std::size_t>(i)].value = g.const_value;
    for (int f : g.fanin) fanout_[static_cast<std::size_t>(f)].push_back(i);
  }
}

void GateSim::force(int net, bool value) {
  if (netlist_.gates()[static_cast<std::size_t>(net)].kind != GateKind::kInput) {
    throw std::invalid_argument("force: not an input net");
  }
  nets_[static_cast<std::size_t>(net)].value = value;
}

void GateSim::force_internal(int net, bool value) {
  nets_[static_cast<std::size_t>(net)].value = value;
}

void GateSim::set_input(int net, bool value, Time at) {
  if (netlist_.gates()[static_cast<std::size_t>(net)].kind != GateKind::kInput) {
    throw std::invalid_argument("set_input: not an input net");
  }
  Event e;
  e.time = at;
  e.net = net;
  e.seq = ++seq_;
  e.input_edge = true;
  e.input_value = value;
  queue_.push(e);
}

bool GateSim::gate_value(int gate) const {
  const netlist::Gate& g = netlist_.gates()[static_cast<std::size_t>(gate)];
  const auto in = [&](std::size_t k) {
    return nets_[static_cast<std::size_t>(g.fanin[k])].value;
  };
  switch (g.kind) {
    case GateKind::kInput:
    case GateKind::kConst:
      return nets_[static_cast<std::size_t>(gate)].value;
    case GateKind::kBuf:
      return g.fanin.empty() ? nets_[static_cast<std::size_t>(gate)].value : in(0);
    case GateKind::kNot:
      return !in(0);
    case GateKind::kAnd: {
      for (std::size_t k = 0; k < g.fanin.size(); ++k) {
        if (!in(k)) return false;
      }
      return true;
    }
    case GateKind::kOr: {
      for (std::size_t k = 0; k < g.fanin.size(); ++k) {
        if (in(k)) return true;
      }
      return false;
    }
    case GateKind::kNor: {
      for (std::size_t k = 0; k < g.fanin.size(); ++k) {
        if (in(k)) return false;
      }
      return true;
    }
  }
  return false;
}

void GateSim::schedule(int net, bool value, Time at) {
  Net& n = nets_[static_cast<std::size_t>(net)];
  if (n.has_pending) {
    if (n.pending_value == value) return;  // already heading there
    // Inertial cancellation: the new evaluation contradicts the pending
    // transition.  If it restores the present value the pulse is swallowed;
    // otherwise the pending edge is replaced.
    n.has_pending = false;
    if (value == n.value) return;
  } else if (value == n.value) {
    return;  // no change
  }
  n.has_pending = true;
  n.pending_value = value;
  n.pending_time = at;
  n.pending_seq = ++seq_;
  queue_.push(Event{at, net, n.pending_seq});
}

void GateSim::evaluate_fanout(int net, Time at) {
  for (int gate : fanout_[static_cast<std::size_t>(net)]) {
    const bool v = gate_value(gate);
    schedule(gate, v, at + gate_delay_[static_cast<std::size_t>(gate)]);
  }
}

bool GateSim::run(Time deadline) {
  while (!queue_.empty()) {
    const Event e = queue_.top();
    if (e.time > deadline) return false;
    queue_.pop();
    Net& n = nets_[static_cast<std::size_t>(e.net)];
    if (e.input_edge) {
      now_ = e.time;
      if (n.value == e.input_value) continue;
      n.value = e.input_value;
      n.last_change = e.time;
      ++n.changes;
      evaluate_fanout(e.net, e.time);
      continue;
    }
    if (!n.has_pending || n.pending_seq != e.seq) continue;  // cancelled
    n.has_pending = false;
    now_ = e.time;
    if (n.value == n.pending_value) continue;
    n.value = n.pending_value;
    n.last_change = e.time;
    ++n.changes;
    evaluate_fanout(e.net, e.time);
  }
  return true;
}

bool GateSim::settle_combinational(int max_passes) {
  for (int pass = 0; pass < max_passes; ++pass) {
    bool changed = false;
    // Logic gates first, feedback BUFs last: a forced state variable must
    // survive the first pass so the cones settle around it rather than
    // around uninitialized garbage.
    for (const bool buf_phase : {false, true}) {
      for (int gate = 0; gate < netlist_.size(); ++gate) {
        const netlist::Gate& g = netlist_.gates()[static_cast<std::size_t>(gate)];
        if (g.kind == GateKind::kInput || g.kind == GateKind::kConst) continue;
        if (g.kind == GateKind::kBuf && g.fanin.empty()) continue;
        if ((g.kind == GateKind::kBuf) != buf_phase) continue;
        const bool v = gate_value(gate);
        if (v != nets_[static_cast<std::size_t>(gate)].value) {
          nets_[static_cast<std::size_t>(gate)].value = v;
          changed = true;
        }
      }
    }
    if (!changed) return true;
  }
  return false;
}

bool GateSim::stabilize(Time deadline) {
  for (int gate = 0; gate < netlist_.size(); ++gate) {
    const netlist::Gate& g = netlist_.gates()[static_cast<std::size_t>(gate)];
    if (g.kind == GateKind::kInput || g.kind == GateKind::kConst) continue;
    if (g.kind == GateKind::kBuf && g.fanin.empty()) continue;
    schedule(gate, gate_value(gate), now_ + gate_delay_[static_cast<std::size_t>(gate)]);
  }
  return run(deadline);
}

void GateSim::reset_counters() {
  for (Net& n : nets_) n.changes = 0;
}

}  // namespace seance::sim
