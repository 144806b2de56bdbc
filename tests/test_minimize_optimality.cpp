// Differential check of the closed-cover search: for small random
// machines, enumerate ALL compatibles by brute force and find the true
// minimum closed cover; the prime-compatible branch-and-bound must match
// its cardinality.

#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <vector>

#include "bench_suite/generator.hpp"
#include "minimize/reduce.hpp"
#include "oracles/checks.hpp"
#include "oracles/reduce_reference.hpp"

namespace seance::minimize {
namespace {

using flowtable::FlowTable;

// All compatibles = all non-empty subsets that are pairwise compatible.
std::vector<StateSet> all_compatibles(const FlowTable& table,
                                      const std::vector<StateSet>& rows) {
  const int n = table.num_states();
  std::vector<StateSet> result;
  for (StateSet set = 1; set < (StateSet{1} << n); ++set) {
    if (is_compatible_set(table, rows, set)) result.push_back(set);
  }
  return result;
}

// Brute-force minimum closed cover cardinality (tables kept <= 6 states so
// the subset lattice stays tractable).
std::optional<std::size_t> brute_force_minimum(const FlowTable& table) {
  const auto rows = compatibility_rows(table);
  const auto compatibles = all_compatibles(table, rows);
  if (compatibles.size() > 20) return std::nullopt;  // would blow up
  const std::size_t limit = 1ull << compatibles.size();
  std::size_t best = compatibles.size() + 1;
  for (std::size_t mask = 0; mask < limit; ++mask) {
    const std::size_t count = static_cast<std::size_t>(std::popcount(mask));
    if (count >= best || count == 0) continue;
    std::vector<StateSet> chosen;
    for (std::size_t i = 0; i < compatibles.size(); ++i) {
      if (mask & (1ull << i)) chosen.push_back(compatibles[i]);
    }
    if (is_closed_cover(table, chosen)) best = count;
  }
  return best;
}

class MinimizeOptimality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MinimizeOptimality, MatchesBruteForceMinimum) {
  bench_suite::GeneratorOptions gen;
  gen.num_states = 5;
  gen.num_inputs = 3;
  gen.num_outputs = 1;
  gen.seed = GetParam();
  const FlowTable table = bench_suite::generate(gen);
  const auto truth = brute_force_minimum(table);
  if (!truth.has_value()) GTEST_SKIP() << "compatible lattice too large";
  const ReductionResult r = reduce(table);
  EXPECT_EQ(r.classes.size(), *truth) << "seed " << GetParam();
  const ReductionResult ref = reference_reduce(table);
  EXPECT_EQ(ref.classes.size(), *truth) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimizeOptimality,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                           10u, 11u, 12u, 13u, 14u, 15u, 16u));

TEST(MinimizeOptimality, PrimeCompatiblesDominateAllCompatibles) {
  // Every compatible is contained in some prime compatible whose closure
  // obligations are no stronger — the replacement argument the generation
  // relies on.
  bench_suite::GeneratorOptions gen;
  gen.num_states = 5;
  gen.num_inputs = 3;
  gen.seed = 33;
  const FlowTable table = bench_suite::generate(gen);
  const auto rows = compatibility_rows(table);
  const auto primes = prime_compatibles(table, rows);
  for (StateSet c : all_compatibles(table, rows)) {
    const auto c_implied = implied_classes(table, c);
    bool replaceable = false;
    for (const PrimeCompatible& p : primes) {
      if ((c & ~p.states) != 0) continue;  // not a superset
      const bool weaker = std::all_of(
          p.implied.begin(), p.implied.end(), [&](StateSet dp) {
            return std::any_of(c_implied.begin(), c_implied.end(),
                               [&](StateSet dc) { return (dp & ~dc) == 0; }) ||
                   (dp & ~c) == 0;
          });
      if (weaker) {
        replaceable = true;
        break;
      }
    }
    EXPECT_TRUE(replaceable) << "compatible " << c << " not dominated";
  }
}

}  // namespace
}  // namespace seance::minimize
