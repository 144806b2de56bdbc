#include "hazard/search.hpp"

#include <gtest/gtest.h>

#include "bench_suite/benchmarks.hpp"
#include "flowtable/table.hpp"
#include "hazard/factor.hpp"
#include "logic/qm.hpp"
#include "oracles/checks.hpp"

namespace seance::hazard {
namespace {

using flowtable::FlowTable;
using flowtable::FlowTableBuilder;

// Two inputs; stable (s0, 00) transitions to (s1, 11).  The intermediate
// columns 10 and 01 are specified to pull toward s2/s0 in ways that
// disturb a state bit that must remain invariant.
struct Fixture {
  FlowTable table;
  EncodedTable encoded;
  std::vector<std::uint32_t> codes;

  explicit Fixture(bool disturb)
      : table(make_table(disturb)), codes({0b00, 0b01, 0b11}) {
    encoded.table = &table;
    encoded.codes = codes;
    encoded.num_state_vars = 2;
  }

  static FlowTable make_table(bool disturb) {
    FlowTableBuilder b(2, 1);
    // Codes: s0 = 00, s1 = 01, s2 = 11 (set in Fixture).
    b.on("s0", "00", "s0", "0");
    b.on("s1", "11", "s1", "1");
    b.on("s2", "10", "s2", "0");
    b.on("s0", "11", "s1", "-");  // the MIC transition under test
    b.on("s1", "00", "s0", "-");  // MIC back (intermediates unspecified)
    b.on("s2", "00", "s0", "-");
    // Intermediate column 10 of the s0 -> s1 transition: unspecified in
    // the clean variant (SEANCE hold-fills it); in the disturbing variant
    // it pulls toward s2, flipping state bit 1 — a bit that must remain
    // invariant across s0 -> s1.
    if (disturb) {
      b.on("s0", "10", "s2", "-");
    }
    return b.build();
  }
};

TEST(HazardSearch, FindHazardsCollectsLists) {
  const Fixture f(/*disturb=*/true);
  const HazardLists lists = find_hazards(f.encoded);
  EXPECT_GT(lists.stats.mic_transitions, 0u);
  // Variable 1 has the hazard at (column 10, s0).
  ASSERT_EQ(lists.per_var.size(), 2u);
  const TotalState expected{0b01, 0};
  EXPECT_TRUE(std::binary_search(lists.per_var[1].begin(), lists.per_var[1].end(),
                                 expected));
  EXPECT_TRUE(std::binary_search(lists.fl.begin(), lists.fl.end(), expected));
  // Variable 0 is allowed to change; its list stays empty.
  EXPECT_TRUE(lists.per_var[0].empty());
}

TEST(HazardSearch, NullTableThrowsBeforeAnyAccess) {
  // Regression: the seed dereferenced encoded.table one line before the
  // nullptr check, so this call was undefined behavior instead of the
  // documented invalid_argument.
  EncodedTable encoded;
  encoded.table = nullptr;
  encoded.num_state_vars = 2;
  EXPECT_THROW((void)find_hazards(encoded), std::invalid_argument);
}

TEST(HazardSearch, CleanTableHasEmptyLists) {
  const Fixture f(/*disturb=*/false);
  const HazardLists lists = find_hazards(f.encoded);
  EXPECT_TRUE(lists.fl.empty());
  EXPECT_EQ(lists.stats.hazard_hits, 0u);
}

TEST(HazardSearch, UnspecifiedIntermediateIsHoldFilled) {
  FlowTableBuilder b(2, 1);
  b.on("s0", "00", "s0", "0");
  b.on("s1", "11", "s1", "1");
  b.on("s0", "11", "s1", "-");
  b.on("s1", "00", "s0", "-");
  // Columns 10 and 01 left unspecified for s0.
  const FlowTable table = b.build();
  EncodedTable encoded{&table, {0b0, 0b1}, 1};
  const HazardLists lists = find_hazards(encoded);
  EXPECT_TRUE(lists.fl.empty());
  // Two intermediates for s0 -> s1 plus two for s1 -> s0.
  EXPECT_EQ(lists.hold_filled.size(), 4u);
}

TEST(HazardSearch, SingleInputChangesAreIgnored) {
  FlowTableBuilder b(2, 1);
  b.on("s0", "00", "s0", "0");
  b.on("s1", "10", "s1", "1");
  b.on("s0", "10", "s1", "-");
  b.on("s1", "00", "s0", "-");
  const FlowTable table = b.build();
  EncodedTable encoded{&table, {0b0, 0b1}, 1};
  const HazardLists lists = find_hazards(encoded);
  EXPECT_EQ(lists.stats.mic_transitions, 0u);
  EXPECT_GT(lists.stats.stable_transitions, 0u);
  EXPECT_TRUE(lists.fl.empty());
}

TEST(HazardSearch, ThreeBitChangeVisitsSixIntermediates) {
  FlowTableBuilder b(3, 1);
  b.on("s0", "000", "s0", "0");
  b.on("s1", "111", "s1", "1");
  b.on("s0", "111", "s1", "-");
  b.on("s1", "000", "s0", "-");
  const FlowTable table = b.build();
  EncodedTable encoded{&table, {0b0, 0b1}, 1};
  const HazardLists lists = find_hazards(encoded);
  // 2^3 - 2 = 6 strict intermediates for each direction (s0->s1, s1->s0).
  EXPECT_EQ(lists.stats.intermediate_points, 12u);
}

TEST(HazardSearch, StatsToString) {
  const Fixture f(true);
  const HazardLists lists = find_hazards(f.encoded);
  const std::string s = to_string(lists, f.table);
  EXPECT_NE(s.find("FL:"), std::string::npos);
  EXPECT_NE(s.find("HL_1"), std::string::npos);
}

TEST(HazardFactor, FsvExpressionIsFirstLevelAllPrimes) {
  // fsv over 3 variables with a small FL-like ON set.
  const std::vector<logic::Minterm> on = {0b011, 0b101};
  const logic::Cover cover = logic::all_primes_cover(3, on, {});
  const logic::ExprPtr e = fsv_expression(cover);
  EXPECT_TRUE(logic::is_first_level_gate_form(e));
  EXPECT_TRUE(logic::equivalent_to_cover(e, cover));
  EXPECT_LE(e->depth(), 3);
}

TEST(HazardFactor, FactorSplitsHoldAndExcitation) {
  // Y = y0*x0 + x0'*x1 over vars (x0=0, x1=1, y0=2).
  logic::Cover cover(3);
  cover.add(logic::Cube::from_string("1-1"));  // x0 * y0
  cover.add(logic::Cube::from_string("01-"));  // x0' * x1
  const logic::ExprPtr e = factor_next_state(cover, 2);
  EXPECT_TRUE(logic::equivalent_to_cover(e, cover));
  // Structure: OR( AND(y0, R), excitation ) with R = x0.
  EXPECT_EQ(e->op(), logic::Op::kOr);
  // Depth <= 5 (the paper's Y-depth bound for factored equations).
  EXPECT_LE(e->depth(), 5);
}

TEST(HazardFactor, NoHoldTermsFallsBackToSop) {
  logic::Cover cover(3);
  cover.add(logic::Cube::from_string("11-"));
  const logic::ExprPtr e = factor_next_state(cover, 2);
  EXPECT_TRUE(logic::equivalent_to_cover(e, cover));
  EXPECT_LE(e->depth(), 3);
}

TEST(HazardFactor, NegativeFeedbackLiteralStaysExcitation) {
  // Term with y0' is excitation, not hold.
  logic::Cover cover(2);  // vars: x0=0, y0=1
  cover.add(logic::Cube::from_string("10"));  // x0 * y0'
  cover.add(logic::Cube::from_string("11"));  // x0 * y0 -> hold
  const logic::ExprPtr e = factor_next_state(cover, 1);
  EXPECT_TRUE(logic::equivalent_to_cover(e, cover));
}

TEST(HazardFactor, SummarizeReportsMetrics) {
  logic::Cover cover(3);
  cover.add(logic::Cube::from_string("1-1"));
  cover.add(logic::Cube::from_string("01-"));
  const FactoredEquation eq = summarize(factor_next_state(cover, 2));
  EXPECT_GT(eq.depth, 0);
  EXPECT_GT(eq.gates, 0);
  EXPECT_GT(eq.literals, 0);
}

TEST(HazardSearch, BenchmarksProduceHazards) {
  // Every Table 1 benchmark has MIC transitions; at least one of them must
  // produce a non-trivial fsv ON-set once encoded.  (Checked end-to-end in
  // test_synthesize; here we only exercise the search over the suite.)
  std::size_t total_mic = 0;
  for (const auto& bench : bench_suite::table1_suite()) {
    const FlowTable t = bench_suite::load(bench);
    // Trivial encoding: state index as code (not race-free, but the
    // search only reads codes).
    std::vector<std::uint32_t> codes;
    for (int s = 0; s < t.num_states(); ++s) codes.push_back(static_cast<std::uint32_t>(s));
    int bits = 1;
    while ((1 << bits) < t.num_states()) ++bits;
    EncodedTable encoded{&t, codes, bits};
    const HazardLists lists = find_hazards(encoded);
    total_mic += lists.stats.mic_transitions;
  }
  EXPECT_GT(total_mic, 0u);
}

}  // namespace
}  // namespace seance::hazard
