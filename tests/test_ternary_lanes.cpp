// The lane-parallel Eichelberger kernel against the scalar oracle
// (tests/oracles/ternary_reference.hpp), on full TernaryReports: counts,
// fixpoint overruns and the first-failure string, at cover level and on
// the built and re-imported gate networks, in both fsv modes.  Blocks
// hold 64 transitions, so machines cut to 1, 63, 64, 65 and 129
// transitions cover a partial block, a full one and the block seams.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generator.hpp"
#include "core/synthesize.hpp"
#include "driver/batch.hpp"
#include "logic/cube.hpp"
#include "logic/expr.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog.hpp"
#include "oracles/ternary_reference.hpp"
#include "sim/ternary_kernel.hpp"
#include "sim/ternary_netsim.hpp"
#include "sim/ternary_verify.hpp"

namespace seance::sim {
namespace {

void expect_same_report(const TernaryReport& lanes, const TernaryReport& scalar,
                        const std::string& what) {
  EXPECT_EQ(lanes.transitions_checked, scalar.transitions_checked) << what;
  EXPECT_EQ(lanes.procedure_a_violations, scalar.procedure_a_violations) << what;
  EXPECT_EQ(lanes.procedure_b_violations, scalar.procedure_b_violations) << what;
  EXPECT_EQ(lanes.fixpoint_overruns, scalar.fixpoint_overruns) << what;
  EXPECT_EQ(lanes.first_failure, scalar.first_failure) << what;
}

/// Both levels, both fsv modes, built and re-imported netlist.
void check_against_oracle(const core::FantomMachine& machine,
                          const std::string& what) {
  netlist::Netlist built;
  (void)netlist::build_fantom(machine, built);
  const netlist::Netlist reimported =
      netlist::parse_verilog(netlist::to_verilog(built, "m"));
  for (const bool fsv_low : {true, false}) {
    const std::string mode = what + (fsv_low ? " fsv-low" : " fsv-free");
    expect_same_report(ternary_verify(machine, fsv_low),
                       reference_ternary_verify(machine, fsv_low), mode + " covers");
    expect_same_report(gate_ternary_verify(built, machine, fsv_low),
                       reference_gate_ternary_verify(built, machine, fsv_low),
                       mode + " built");
    expect_same_report(gate_ternary_verify(reimported, machine, fsv_low),
                       reference_gate_ternary_verify(reimported, machine, fsv_low),
                       mode + " reimported");
  }
}

/// The kernel's transition count of `table`.
int count_transitions(const flowtable::FlowTable& table) {
  int count = 0;
  for (int s = 0; s < table.num_states(); ++s) {
    for (const int col_a : table.stable_columns(s)) {
      for (int col_b = 0; col_b < table.num_columns(); ++col_b) {
        if (col_b != col_a && table.entry(s, col_b).specified()) ++count;
      }
    }
  }
  return count;
}

/// A machine with exactly `target` transitions, each one a transition of
/// `m`, so it gets the verdict it had there.  The table holds `copies`
/// copies of m's states with m's codes; each copy keeps only its state's
/// first stable column, so every other specified entry is one
/// transition.  An entry into another of the state's own stable columns
/// leads to the next copy of the state, which has the same code.  Entries
/// are then unspecified from the last copy up until `target` remain.
core::FantomMachine replicate(const core::FantomMachine& m, int copies, int target) {
  const flowtable::FlowTable& from = m.table;
  const int states = from.num_states();
  core::FantomMachine out = m;
  out.table = flowtable::FlowTable(from.num_inputs(), from.num_outputs(),
                                   states * copies);
  out.codes.clear();
  int count = 0;
  for (int r = 0; r < copies; ++r) {
    for (int s = 0; s < states; ++s) {
      out.codes.push_back(m.codes[static_cast<std::size_t>(s)]);
      const int self = r * states + s;
      const int stable = from.stable_columns(s).front();
      out.table.set(self, stable, self);
      for (int col = 0; col < from.num_columns(); ++col) {
        const int next = from.entry(s, col).next;
        if (col == stable || next < 0) continue;
        out.table.set(self, col,
                      next == s ? ((r + 1) % copies) * states + s : r * states + next);
        ++count;
      }
    }
  }
  for (int s = states * copies - 1; s >= 0; --s) {
    for (int col = from.num_columns() - 1; col >= 0 && count > target; --col) {
      flowtable::Entry& e = out.table.entry(s, col);
      if (!e.specified() || e.next == s) continue;
      e.next = flowtable::kUnspecifiedNext;
      --count;
    }
  }
  return out;
}

class LaneKernelTable1 : public ::testing::TestWithParam<std::string> {};

TEST_P(LaneKernelTable1, EqualsScalarKernel) {
  const auto table = bench_suite::load(bench_suite::by_name(GetParam()));
  check_against_oracle(core::synthesize(table), GetParam() + " fantom");

  core::SynthesisOptions naive;
  naive.add_fsv = false;
  naive.consensus_repair = false;
  check_against_oracle(core::synthesize(table, naive), GetParam() + " naive");

  core::SynthesisOptions flat;
  flat.factor = false;
  check_against_oracle(core::synthesize(table, flat), GetParam() + " unfactored");
}

INSTANTIATE_TEST_SUITE_P(Table1, LaneKernelTable1,
                         ::testing::Values("test_example", "traffic", "lion",
                                           "lion9", "train11"));

TEST(LaneKernel, EqualsScalarKernelOnGeneratedShapes) {
  for (const auto& [states, inputs] : {std::pair{6, 3}, {8, 4}, {12, 5}}) {
    for (const std::uint64_t seed : {3u, 17u}) {
      bench_suite::GeneratorOptions options;
      options.num_states = states;
      options.num_inputs = inputs;
      options.seed = seed;
      check_against_oracle(core::synthesize(bench_suite::generate(options)),
                           std::to_string(states) + "x" + std::to_string(inputs) +
                               " seed " + std::to_string(seed));
    }
  }
}

TEST(LaneKernel, EqualsScalarKernelOnGoldenHardestTables) {
  // Two jobs of the pinned corpus's hardest-20x6 stream.
  driver::BatchRunner runner;
  runner.add_hardest_generated(2, /*base_seed=*/1);
  for (const driver::JobSpec& job : runner.jobs()) {
    check_against_oracle(core::synthesize(job.table, job.options), job.name);
  }
}

TEST(LaneKernel, EqualsScalarKernelAtBlockSeams) {
  bench_suite::GeneratorOptions options = driver::kHarderShape;
  options.seed = 5;
  const core::FantomMachine source = core::synthesize(bench_suite::generate(options));
  for (const int target : {1, 63, 64, 65, 129}) {
    const core::FantomMachine machine = replicate(source, 6, target);
    ASSERT_EQ(count_transitions(machine.table), target);
    check_against_oracle(machine, std::to_string(target) + " transitions");
  }
}

/// lion with y0's cover and factored form replaced by their complement,
/// so y0 feeds its own negation.
core::FantomMachine self_negating_lion() {
  core::FantomMachine machine =
      core::synthesize(bench_suite::load(bench_suite::by_name("lion")));
  core::Equation& y0 = machine.y.front();
  logic::Cover complement(y0.cover.num_vars());
  for (logic::Minterm m = 0; m < (logic::Minterm{1} << complement.num_vars()); ++m) {
    if (!y0.cover.eval(m)) {
      complement.add(logic::Cube::from_minterm(complement.num_vars(), m));
    }
  }
  y0.cover = complement;
  y0.expr = logic::Expr::negate(y0.expr);
  return machine;
}

TEST(LaneKernel, SelfNegatingFeedbackGoesXAtBothLevels) {
  // A Kleene evaluator cannot make Procedure B oscillate: widening ends
  // at a state s with f_A(s) below s in the information order, the final
  // inputs are more defined than A's, so f_B(s) is below s too, and each
  // Gauss-Seidel narrowing step keeps that while only turning X slots
  // binary.  So a self-negating y0 does not run out the bound: A widens
  // it to X and B leaves it there.
  const core::FantomMachine machine = self_negating_lion();
  for (const bool fsv_low : {true, false}) {
    const TernaryReport cover = ternary_verify(machine, fsv_low);
    EXPECT_EQ(cover.transitions_checked, 14);
    EXPECT_EQ(cover.fixpoint_overruns, 0);
    EXPECT_FALSE(cover.clean());
    EXPECT_EQ(cover.first_failure, "procedure A: y0 went X on m_out col 0 -> 1");
    expect_same_report(gate_ternary_verify(machine, fsv_low), cover, "gate level");
  }
  check_against_oracle(machine, "self-negating lion");
}

/// Two inputs, one state variable, no fsv.  `filler` pairs of states
/// come first: a code-0 state stable in column 0 and a code-1 state
/// stable in column 1, each leading to the other in the other column —
/// one transition each.  Then s0' (code 0), stable in columns 0 and 2,
/// and s1' (code 1), stable in columns 1 and 3, with every other entry
/// leading to the other state: 12 transitions.
core::FantomMachine oscillator_machine(int filler) {
  core::FantomMachine m;
  const int states = 2 * filler + 2;
  m.table = flowtable::FlowTable(2, 1, states);
  for (int s = 0; s < states; s += 2) {
    for (int col = 0; col < (s < 2 * filler ? 2 : 4); ++col) {
      m.table.set(s, col, s + col % 2);
      m.table.set(s + 1, col, s + col % 2);
    }
    m.codes.insert(m.codes.end(), {0, 1});
  }
  m.layout.num_inputs = 2;
  m.layout.num_state_vars = 1;
  m.layout.has_fsv = false;
  return m;
}

/// A feedback function no gate network computes, to reach the overrun
/// path: Y0 = x0 while x1 is 0; otherwise y0 inverts, with X read as 0,
/// which is not monotone, so narrowing from X flips y0 on every pass.
struct ScalarOscillator {
  logic::Val3 x[2] = {};
  logic::Val3 y = {};
  void set_input(int i, logic::Val3 v) { x[i] = v; }
  logic::Val3& state(int) { return y; }
  logic::Val3& fsv() { return y; }
  logic::Val3 next_state(int) {
    if (x[1] == logic::Val3::k0) return x[0];
    return y == logic::Val3::k1 ? logic::Val3::k0 : logic::Val3::k1;
  }
  logic::Val3 next_fsv() { return logic::Val3::k0; }
};

struct LaneOscillator {
  detail::Lanes x[2] = {};
  detail::Lanes y = {};
  detail::Lanes& input(int i) { return x[i]; }
  detail::Lanes& state(int) { return y; }
  detail::Lanes& fsv() { return y; }
  detail::Lanes next_state(int) {
    const std::uint64_t flip = x[1].can1;  // x1 is 1 or X
    const detail::Lanes inverted{y.can1 & ~y.can0, y.can0};
    return {(flip & inverted.can0) | (~flip & x[0].can0),
            (flip & inverted.can1) | (~flip & x[0].can1)};
  }
  detail::Lanes next_fsv() { return detail::kLanes0; }
};

TEST(LaneKernel, OscillatingProcedureBOverrunsLikeTheScalarKernel) {
  // With 35 filler pairs the 70 clean transitions come first, so the
  // first failure is in the second block.
  for (const int filler : {0, 35}) {
    const core::FantomMachine machine = oscillator_machine(filler);
    ScalarOscillator scalar_eval;
    const TernaryReport scalar = reference_run_procedures(machine, scalar_eval, true);
    LaneOscillator lane_eval;
    const TernaryReport lanes = detail::run_procedures(machine, lane_eval, true);
    const std::string what = std::to_string(filler) + " filler pairs";
    expect_same_report(lanes, scalar, what);
    EXPECT_EQ(lanes.transitions_checked, 2 * filler + 12) << what;
    EXPECT_EQ(lanes.fixpoint_overruns, 6) << what;  // every column-2/3 destination
    EXPECT_EQ(lanes.first_failure, "procedure A: y0 went X on s" +
                                       std::to_string(2 * filler) + " col 0 -> 2")
        << what;
  }
}

using GateVerify = TernaryReport (*)(const netlist::Netlist&,
                                     const core::FantomMachine&, bool);
const GateVerify kGateVerifiers[] = {static_cast<GateVerify>(&gate_ternary_verify),
                                     &reference_gate_ternary_verify};

/// A one-input, one-state machine whose only transition evaluates y0.
core::FantomMachine one_variable_machine() {
  flowtable::FlowTableBuilder b(1, 1);
  b.on("s0", "0", "s0", "0");
  b.on("s0", "1", "s0", "0");
  core::FantomMachine m;
  m.table = b.build();
  m.codes = {0};
  m.layout.num_inputs = 1;
  m.layout.num_state_vars = 1;
  m.layout.has_fsv = false;
  return m;
}

TEST(LaneKernel, UncutFeedbackCycleIsAnError) {
  // y0 = NOT(loop), loop = AND(x0, BUF(loop)): the loop closes through a
  // BUF that is not one of the cuts.
  const core::FantomMachine m = one_variable_machine();
  netlist::Netlist n;
  const int x = n.add_input("x0");
  const int back = n.add_placeholder("back");
  const int loop = n.add_gate(netlist::GateKind::kAnd, {x, back});
  n.connect(back, loop);
  n.set_output("y0", n.add_gate(netlist::GateKind::kNot, {loop}));
  const std::string expected = "gate_ternary_verify: feedback cycle through net n" +
                               std::to_string(loop) + " is not broken by a cut";
  for (const GateVerify verify : kGateVerifiers) {
    try {
      (void)verify(n, m, true);
      FAIL() << "no error";
    } catch (const std::logic_error& e) {
      EXPECT_EQ(std::string(e.what()), expected);
    }
  }
}

TEST(LaneKernel, BufWithoutOneFaninIsAnError) {
  // y0 = NOT(unconnected placeholder BUF).
  const core::FantomMachine m = one_variable_machine();
  netlist::Netlist n;
  (void)n.add_input("x0");
  const int dangling = n.add_placeholder("dangling");
  n.set_output("y0", n.add_gate(netlist::GateKind::kNot, {dangling}));
  const std::string expected = "gate_ternary_verify: gate n" +
                               std::to_string(dangling) + " needs exactly one fanin";
  for (const GateVerify verify : kGateVerifiers) {
    try {
      (void)verify(n, m, true);
      FAIL() << "no error";
    } catch (const std::logic_error& e) {
      EXPECT_EQ(std::string(e.what()), expected);
    }
  }
}

TEST(LaneKernel, MalformedConeWithoutTransitionsDoesNotThrow) {
  // The cone errors surface when a cone is first evaluated; a table
  // with no transitions evaluates none.
  core::FantomMachine m = one_variable_machine();
  flowtable::FlowTableBuilder b(1, 1);
  b.on("s0", "0", "s0", "0");
  m.table = b.build();
  netlist::Netlist n;
  (void)n.add_input("x0");
  const int dangling = n.add_placeholder("dangling");
  n.set_output("y0", n.add_gate(netlist::GateKind::kNot, {dangling}));
  const TernaryReport report = gate_ternary_verify(n, m);
  EXPECT_EQ(report.transitions_checked, 0);
  EXPECT_TRUE(report.clean());
}

}  // namespace
}  // namespace seance::sim
