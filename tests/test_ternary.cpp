#include "logic/ternary.hpp"

#include <gtest/gtest.h>

#include "logic/qm.hpp"
#include "oracles/checks.hpp"
#include "testutil.hpp"

namespace seance::logic {
namespace {

using testutil::random_function;

TEST(Ternary, AlgebraTables) {
  EXPECT_EQ(and3(Val3::k1, Val3::k1), Val3::k1);
  EXPECT_EQ(and3(Val3::k0, Val3::kX), Val3::k0);
  EXPECT_EQ(and3(Val3::k1, Val3::kX), Val3::kX);
  EXPECT_EQ(or3(Val3::k0, Val3::k0), Val3::k0);
  EXPECT_EQ(or3(Val3::k1, Val3::kX), Val3::k1);
  EXPECT_EQ(or3(Val3::k0, Val3::kX), Val3::kX);
  EXPECT_EQ(not3(Val3::kX), Val3::kX);
  EXPECT_EQ(not3(Val3::k0), Val3::k1);
}

TEST(Ternary, CoverEvalDeterminate) {
  Cover cover(2);
  cover.add(Cube::from_string("1-"));
  // x0 = 1, x1 = X: the cube does not look at x1 -> determinate 1.
  const std::vector<Val3> vals = {Val3::k1, Val3::kX};
  EXPECT_EQ(eval3(cover, vals), Val3::k1);
}

TEST(Ternary, CoverEvalUnknown) {
  Cover cover(2);
  cover.add(Cube::from_string("11"));
  const std::vector<Val3> vals = {Val3::k1, Val3::kX};
  EXPECT_EQ(eval3(cover, vals), Val3::kX);
}

TEST(Ternary, ExprEvalMatchesCoverEval) {
  Cover cover(3);
  cover.add(Cube::from_string("1-0"));
  cover.add(Cube::from_string("01-"));
  const ExprPtr e = first_level_sop_expr(cover);
  // All 27 ternary assignments must agree between expr and cover.
  for (int a = 0; a < 27; ++a) {
    int rem = a;
    std::vector<Val3> vals;
    for (int i = 0; i < 3; ++i) {
      vals.push_back(static_cast<Val3>(rem % 3));
      rem /= 3;
    }
    EXPECT_EQ(eval3(e, vals), eval3(cover, vals)) << "assignment " << a;
  }
}

TEST(Ternary, StaticOneHazardDetected) {
  // f = x0 x1' + x0' x1 ... XOR is dynamic everywhere; take instead the
  // classic static-1 hazard: f = x0 x1 + x0' x2, transition 111 -> 011
  // (x0 falls) keeps f = 1 but no single cube spans both points.
  Cover cover(3);
  cover.add(Cube::from_string("11-"));
  cover.add(Cube::from_string("0-1"));
  EXPECT_FALSE(ternary_transition_clean(cover, 0b111, 0b110));
  // Adding the consensus cube x1 x2 removes the hazard.
  cover.add(Cube::from_string("-11"));
  EXPECT_TRUE(ternary_transition_clean(cover, 0b111, 0b110));
}

TEST(Ternary, Static0TransitionsAreCleanWhenDeterminate) {
  Cover cover(2);
  cover.add(Cube::from_string("11"));
  // 00 -> 01 keeps f = 0; ternary gives X? cube needs x0=1: with x1=X,
  // x0=0 -> determinate 0: clean.
  EXPECT_TRUE(ternary_transition_clean(cover, 0b00, 0b10));
}

TEST(Ternary, AllPrimesCoverIsSicStatic1HazardFree) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    const auto f = random_function(5, 0.4, 0.0, seed);
    const Cover all = all_primes_cover(5, f.on, f.dc);
    EXPECT_TRUE(sic_static1_hazard_free(all)) << "seed " << seed;
  }
}

TEST(Ternary, MinimalCoverCanHaveSicHazard) {
  // The consensus example again: the essential cover x0x1 + x0'x2 is not
  // SIC static-1 hazard free (pair 111-110 split across cubes).
  Cover cover(3);
  cover.add(Cube::from_string("11-"));
  cover.add(Cube::from_string("0-1"));
  EXPECT_FALSE(sic_static1_hazard_free(cover));
}

TEST(Ternary, AdjacentOnPairsCleanUnderAllPrimes) {
  // Stronger version of the fsv guarantee: for every 1-bit input change
  // between ON minterms, the ternary value of the all-primes cover stays
  // determinate (no glitch while one variable is in flight).
  const auto f = random_function(5, 0.45, 0.0, 42);
  const Cover all = all_primes_cover(5, f.on, f.dc);
  for (Minterm m : f.on) {
    for (int b = 0; b < 5; ++b) {
      const Minterm m2 = m ^ (1u << b);
      if (!all.eval(m2)) continue;
      EXPECT_TRUE(ternary_transition_clean(all, m, m2))
          << "transition " << m << "->" << m2;
    }
  }
}

}  // namespace
}  // namespace seance::logic
