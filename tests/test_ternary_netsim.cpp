#include "sim/ternary_netsim.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generator.hpp"
#include "core/synthesize.hpp"
#include "logic/cube.hpp"
#include "logic/expr.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog.hpp"
#include "oracles/ternary_reference.hpp"
#include "sim/ternary_kernel.hpp"
#include "sim/ternary_verify.hpp"

namespace seance::sim {
namespace {

using logic::Val3;

void expect_reports_equal(const TernaryReport& cover, const TernaryReport& gate,
                          const std::string& what) {
  EXPECT_EQ(cover.transitions_checked, gate.transitions_checked) << what;
  EXPECT_EQ(cover.procedure_a_violations, gate.procedure_a_violations) << what;
  EXPECT_EQ(cover.procedure_b_violations, gate.procedure_b_violations) << what;
  EXPECT_EQ(cover.fixpoint_overruns, gate.fixpoint_overruns) << what;
  EXPECT_EQ(cover.first_failure, gate.first_failure) << what;
}

/// The full differential for one machine: the cover-level verdict, the
/// gate-level verdict on the freshly built netlist, and the gate-level
/// verdict on the netlist re-imported from its own Verilog must be
/// identical, in both fsv modes.
void check_differential(const core::FantomMachine& machine,
                        const std::string& what) {
  netlist::Netlist built;
  (void)netlist::build_fantom(machine, built);
  const netlist::Netlist reimported =
      netlist::parse_verilog(netlist::to_verilog(built, "m"));
  for (const bool fsv_low : {true, false}) {
    const std::string mode = what + (fsv_low ? " fsv-low" : " fsv-free");
    const TernaryReport cover = ternary_verify(machine, fsv_low);
    expect_reports_equal(cover, gate_ternary_verify(built, machine, fsv_low),
                         mode + " built");
    expect_reports_equal(cover,
                         gate_ternary_verify(reimported, machine, fsv_low),
                         mode + " reimported");
  }
}

class NetsimDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(NetsimDifferential, AgreesWithCoverLevelOnTable1Suite) {
  const auto table = bench_suite::load(bench_suite::by_name(GetParam()));
  check_differential(core::synthesize(table), GetParam() + " fantom");

  core::SynthesisOptions naive;
  naive.add_fsv = false;
  naive.consensus_repair = false;
  check_differential(core::synthesize(table, naive), GetParam() + " naive");

  core::SynthesisOptions flat;
  flat.factor = false;
  check_differential(core::synthesize(table, flat), GetParam() + " unfactored");
}

INSTANTIATE_TEST_SUITE_P(Table1, NetsimDifferential,
                         ::testing::Values("test_example", "traffic", "lion",
                                           "lion9", "train11"));

TEST(NetsimDifferential, AgreesOnGeneratedShapes) {
  for (const std::uint64_t seed : {11u, 23u, 47u}) {
    bench_suite::GeneratorOptions options;
    options.num_states = 6;
    options.num_inputs = 3;
    options.num_outputs = 2;
    options.seed = seed;
    const auto table = bench_suite::generate(options);
    check_differential(core::synthesize(table),
                       "generated seed " + std::to_string(seed));
  }
}

/// Hand-built machine that pins the monotone widen rule: fsv is the
/// constant-1 function and y0 copies fsv, so with fsv evaluated
/// ternarily Procedure A widens fsv 0 -> X (the value moved) and y0
/// follows it to X — an invariant-bit violation on every transition.
/// The pre-fix update rule let the second widening pass narrow the X
/// slots back to their binary next values (fsv -> 1, y0 -> 1), hiding
/// both violations.
core::FantomMachine widen_regression_machine() {
  flowtable::FlowTableBuilder b(1, 1);
  b.on("s0", "0", "s0", "0");
  b.on("s0", "1", "s0", "0");

  core::FantomMachine m;
  m.table = b.build();
  m.codes = {0};
  m.layout.num_inputs = 1;
  m.layout.num_state_vars = 1;
  m.layout.has_fsv = true;

  logic::Cover y0(3);  // y-space: x0, y0, fsv
  y0.add(logic::Cube::from_string("--1"));
  m.y.emplace_back(y0);
  m.y[0].expr = logic::Expr::var(2);

  logic::Cover tautology(2);  // (x, y) space: x0, y0
  tautology.add(logic::Cube::from_string("--"));
  m.fsv = core::Equation(tautology);
  m.fsv.expr = logic::Expr::constant(true);
  m.ssd = core::Equation(tautology);
  m.ssd.expr = logic::Expr::constant(true);
  return m;
}

TEST(TernaryNetsim, MonotoneWidenPinsRegressionMachine) {
  const core::FantomMachine m = widen_regression_machine();

  // fsv floating: both transitions widen fsv to X, y0 follows, and the
  // settled Procedure-B value (1) disagrees with the code (0).
  const TernaryReport free_fsv = ternary_verify(m, /*fsv_low=*/false);
  EXPECT_EQ(free_fsv.transitions_checked, 2);
  EXPECT_EQ(free_fsv.procedure_a_violations, 2) << free_fsv.first_failure;
  EXPECT_EQ(free_fsv.procedure_b_violations, 2) << free_fsv.first_failure;
  EXPECT_EQ(free_fsv.fixpoint_overruns, 0);

  // The protection window rescues the same machine: with fsv pinned low
  // y0 holds its code through A and settles to it in B.
  const TernaryReport pinned = ternary_verify(m, /*fsv_low=*/true);
  EXPECT_TRUE(pinned.clean()) << pinned.first_failure;

  // And the gate network must tell the same story in both modes.
  check_differential(m, "widen regression");
}

TEST(TernaryNetsim, UpdateSlotIsMonotoneWhenWidening) {
  // An X slot never narrows during widening, whatever the next value.
  for (const Val3 next : {Val3::k0, Val3::k1, Val3::kX}) {
    Val3 slot = Val3::kX;
    EXPECT_FALSE(reference_update_slot(slot, next, /*widen_only=*/true));
    EXPECT_EQ(slot, Val3::kX);
  }
  // A binary slot whose value moves widens to X, never to the new value.
  Val3 slot = Val3::k0;
  EXPECT_TRUE(reference_update_slot(slot, Val3::k1, /*widen_only=*/true));
  EXPECT_EQ(slot, Val3::kX);
  // Narrowing (Procedure B) writes the next value through.
  slot = Val3::kX;
  EXPECT_TRUE(reference_update_slot(slot, Val3::k1, /*widen_only=*/false));
  EXPECT_EQ(slot, Val3::k1);

  // The kernel's bitplane rule is the same rule in every lane: lane l of
  // a block holds pair l of the nine (slot, next) pairs.
  const Val3 values[] = {Val3::k0, Val3::k1, Val3::kX};
  const auto planes = [](Val3 v, std::uint64_t bit) {
    return detail::Lanes{v != Val3::k1 ? bit : 0, v != Val3::k0 ? bit : 0};
  };
  for (const bool widen : {true, false}) {
    detail::Lanes slots;
    detail::Lanes nexts;
    for (int l = 0; l < 9; ++l) {
      const std::uint64_t bit = std::uint64_t{1} << l;
      const detail::Lanes s = planes(values[l / 3], bit);
      const detail::Lanes n = planes(values[l % 3], bit);
      slots = {slots.can0 | s.can0, slots.can1 | s.can1};
      nexts = {nexts.can0 | n.can0, nexts.can1 | n.can1};
    }
    const std::uint64_t changed = detail::update_lanes(slots, nexts, widen);
    for (int l = 0; l < 9; ++l) {
      const std::uint64_t bit = std::uint64_t{1} << l;
      Val3 expect = values[l / 3];
      const bool moved = reference_update_slot(expect, values[l % 3], widen);
      EXPECT_EQ((changed & bit) != 0, moved) << "lane " << l << " widen " << widen;
      EXPECT_EQ(slots.can0 & bit, planes(expect, bit).can0) << "lane " << l;
      EXPECT_EQ(slots.can1 & bit, planes(expect, bit).can1) << "lane " << l;
    }
  }
}

TEST(TernaryNetsim, RejectsNetlistMissingExpectedNets) {
  const core::FantomMachine m = widen_regression_machine();
  netlist::Netlist n;
  const int x = n.add_input("not_x0");
  n.set_output("y0", n.add_gate(netlist::GateKind::kNot, {x}));
  n.set_output("fsv", n.add_const(false));
  EXPECT_THROW((void)gate_ternary_verify(n, m), std::invalid_argument);
}

TEST(TernaryNetsim, RejectsFsvAliasingAnInputOrStateCut) {
  const core::FantomMachine m = widen_regression_machine();
  {
    // fsv output pointing at the x0 input net: pinning it low would
    // drive a primary input.
    netlist::Netlist n;
    const int x = n.add_input("x0");
    n.set_output("y0", n.add_gate(netlist::GateKind::kNot, {x}));
    n.set_output("fsv", x);
    EXPECT_THROW((void)gate_ternary_verify(n, m), std::invalid_argument);
  }
  {
    // fsv output aliasing the y0 cut: pinning it would freeze the state.
    netlist::Netlist n;
    const int x = n.add_input("x0");
    const int y = n.add_gate(netlist::GateKind::kNot, {x});
    n.set_output("y0", y);
    n.set_output("fsv", y);
    EXPECT_THROW((void)gate_ternary_verify(n, m), std::invalid_argument);
  }
}

TEST(TernaryNetsim, ConvenienceOverloadBuildsTheNetlistItself) {
  const auto table = bench_suite::load(bench_suite::by_name("lion"));
  const auto machine = core::synthesize(table);
  const TernaryReport direct = gate_ternary_verify(machine);
  const TernaryReport cover = ternary_verify(machine);
  expect_reports_equal(cover, direct, "convenience overload");
}

}  // namespace
}  // namespace seance::sim
