#include "logic/cube.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "oracles/checks.hpp"

namespace seance::logic {
namespace {

TEST(Cube, UniversalCubeCoversEverything) {
  const Cube c(3);
  EXPECT_EQ(c.literal_count(), 0);
  for (Minterm m = 0; m < 8; ++m) EXPECT_TRUE(c.contains(m));
  EXPECT_EQ(c.minterms().size(), 8u);
}

TEST(Cube, FromMintermIsFullCare) {
  const Cube c = Cube::from_minterm(4, 0b1010);
  EXPECT_EQ(c.literal_count(), 4);
  EXPECT_TRUE(c.contains(Minterm{0b1010}));
  EXPECT_FALSE(c.contains(Minterm{0b1011}));
  EXPECT_EQ(c.minterms(), std::vector<Minterm>{0b1010});
}

TEST(Cube, FromStringRoundTrip) {
  const Cube c = Cube::from_string("1-0");
  EXPECT_EQ(c.to_string(), "1-0");
  EXPECT_TRUE(c.contains(Minterm{0b001}));   // x0=1, x1=0, x2=0
  EXPECT_TRUE(c.contains(Minterm{0b011}));   // x1 free
  EXPECT_FALSE(c.contains(Minterm{0b000}));  // x0 must be 1
  EXPECT_FALSE(c.contains(Minterm{0b101}));  // x2 must be 0
}

TEST(Cube, FromStringRejectsBadChars) {
  EXPECT_THROW((void)Cube::from_string("10x"), std::invalid_argument);
}

TEST(Cube, ValueBitsOutsideCareAreCanonicalized) {
  const Cube a(3, 0b011, 0b111);  // bit 2 of value outside care
  const Cube b(3, 0b011, 0b011);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.key(), b.key());
}

TEST(Cube, ContainmentOfSubcube) {
  const Cube big = Cube::from_string("1--");
  const Cube small = Cube::from_string("1-0");
  EXPECT_TRUE(big.contains(small));
  EXPECT_FALSE(small.contains(big));
  EXPECT_TRUE(big.contains(big));
}

TEST(Cube, ContainmentRequiresMatchingPolarity) {
  const Cube a = Cube::from_string("1--");
  const Cube b = Cube::from_string("0--");
  EXPECT_FALSE(a.contains(b));
  EXPECT_FALSE(b.contains(a));
}

TEST(Cube, MintermEnumerationMatchesContains) {
  const Cube c = Cube::from_string("-1-0");
  const auto ms = c.minterms();
  EXPECT_EQ(ms.size(), 4u);
  for (Minterm m = 0; m < 16; ++m) {
    const bool listed = std::find(ms.begin(), ms.end(), m) != ms.end();
    EXPECT_EQ(listed, c.contains(m)) << "minterm " << m;
  }
}

TEST(Cube, RejectsOutOfRangeArity) {
  EXPECT_THROW(Cube(-1), std::invalid_argument);
  EXPECT_THROW(Cube(kMaxVars + 1), std::invalid_argument);
}

TEST(Cover, EvalIsDisjunction) {
  Cover cover(3);
  cover.add(Cube::from_string("1-0"));
  cover.add(Cube::from_string("01-"));
  EXPECT_TRUE(cover.eval(0b001));   // first cube
  EXPECT_TRUE(cover.eval(0b010));   // second cube
  EXPECT_FALSE(cover.eval(0b000));
  EXPECT_FALSE(cover.eval(0b101));
}

TEST(Cover, OnSetEnumeration) {
  Cover cover(3);
  cover.add(Cube::from_string("--1"));
  const std::vector<Minterm> expected = {4, 5, 6, 7};
  EXPECT_EQ(on_set(cover), expected);
}

TEST(Cover, EqualsFunctionHonoursDontCares) {
  Cover cover(2);
  cover.add(Cube::from_string("1-"));
  const std::vector<Minterm> on = {1};
  const std::vector<Minterm> dc = {3};
  EXPECT_TRUE(equals_function(cover, on, dc));
  const std::vector<Minterm> on_strict = {1};
  EXPECT_FALSE(equals_function(cover, on_strict, {}));  // covers DC 3 -> not allowed
}

TEST(Cover, SingleCubeContains) {
  Cover cover(3);
  cover.add(Cube::from_string("1--"));
  EXPECT_TRUE(cover.single_cube_contains(Cube::from_string("1-0")));
  EXPECT_FALSE(cover.single_cube_contains(Cube::from_string("--0")));
}

TEST(Cover, ArityMismatchThrows) {
  Cover cover(3);
  EXPECT_THROW(cover.add(Cube::from_string("10")), std::invalid_argument);
}

TEST(Cover, ToStringNames) {
  Cover cover(2);
  cover.add(Cube::from_string("10"));
  const std::vector<std::string> names = {"a", "b"};
  EXPECT_EQ(cover.to_string(names), "a*b'");
}

TEST(Cover, EmptyCoverPrintsZero) {
  const Cover cover(2);
  EXPECT_EQ(cover.to_string(), "0");
  EXPECT_FALSE(cover.eval(0));
}

class CubeSubsetWalk : public ::testing::TestWithParam<int> {};

TEST_P(CubeSubsetWalk, MintermCountMatchesFreeVars) {
  const int free_vars = GetParam();
  // Build a cube over 6 vars with `free_vars` don't-cares.
  std::string pattern(6, '1');
  for (int i = 0; i < free_vars; ++i) pattern[static_cast<std::size_t>(i)] = '-';
  const Cube c = Cube::from_string(pattern);
  EXPECT_EQ(c.minterms().size(), 1u << free_vars);
  EXPECT_EQ(c.literal_count(), 6 - free_vars);
}

INSTANTIATE_TEST_SUITE_P(AllWidths, CubeSubsetWalk, ::testing::Range(0, 7));

}  // namespace
}  // namespace seance::logic
