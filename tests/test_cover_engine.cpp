#include "logic/cover_engine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "oracles/charts.hpp"

namespace seance::logic {
namespace {

bool is_valid_cover(const CoverTable& t, const std::vector<std::size_t>& cols) {
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    bool covered = false;
    for (std::size_t c : cols) {
      if (t.covers(c, r)) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

TEST(CoverEngine, EmptyTableIsTriviallyExact) {
  const CoverTable t(0, 5);
  const MinCoverResult r = solve_min_cover(t, 1000);
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(r.exact);
  EXPECT_TRUE(r.columns.empty());
}

TEST(CoverEngine, SingleColumnCoversEverything) {
  CoverTable t(70, 3);  // spans two words
  for (std::size_t r = 0; r < 70; ++r) t.set(r, 1);
  t.set(0, 0);
  t.set(69, 2);
  const MinCoverResult r = solve_min_cover(t, 1000);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.columns, std::vector<std::size_t>{1});
}

TEST(CoverEngine, IdentityMatrixNeedsAllColumns) {
  CoverTable t(6, 6);
  for (std::size_t i = 0; i < 6; ++i) t.set(i, i);
  const MinCoverResult r = solve_min_cover(t, 1000);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.columns.size(), 6u);  // every column is a unit row's only cover
}

TEST(CoverEngine, UncoverableRowReportsNotFound) {
  CoverTable t(3, 2);
  t.set(0, 0);
  t.set(1, 1);
  // Row 2 has no covering column.
  const MinCoverResult r = solve_min_cover(t, 1000);
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.exact);  // proven uncoverable, not a budget artifact
  EXPECT_FALSE(greedy_cover(t).has_value());
}

CoverTable greedy_trap() {
  // Optimal cover is {A, B}; greedy grabs the size-4 column C first and
  // needs three.  Reduction alone solves it: rows 2 and 5 dominate their
  // neighbours and force A and B.
  CoverTable t(6, 3);
  for (std::size_t r : {0u, 1u, 2u}) t.set(r, 0);  // A
  for (std::size_t r : {3u, 4u, 5u}) t.set(r, 1);  // B
  for (std::size_t r : {0u, 1u, 3u, 4u}) t.set(r, 2);  // C
  return t;
}

TEST(CoverEngine, ReductionBeatsGreedyOnTrapInstance) {
  const CoverTable t = greedy_trap();
  const MinCoverResult r = solve_min_cover(t, 1000);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.columns, (std::vector<std::size_t>{0, 1}));

  const auto g = greedy_cover(t);
  ASSERT_TRUE(g.has_value());
  EXPECT_TRUE(is_valid_cover(t, *g));
  EXPECT_EQ(g->size(), 3u);  // documents greedy's known suboptimality
}

CoverTable cyclic_ring(std::size_t n) {
  // Column i covers rows {i, i+1 mod n}: no unit rows, no dominance —
  // the branch and bound has to work.  Minimum cover is ceil(n/2).
  CoverTable t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    t.set(i, i);
    t.set((i + 1) % n, i);
  }
  return t;
}

TEST(CoverEngine, CyclicChartSolvedExactly) {
  const CoverTable t = cyclic_ring(8);
  const MinCoverResult r = solve_min_cover(t, 1'000'000);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.columns.size(), 4u);
  EXPECT_TRUE(is_valid_cover(t, r.columns));
  EXPECT_GT(r.nodes, 0u);
}

// Regression for the seed bug: when the node budget ran out, the solver
// threw away a valid incumbent and reported failure, silently demoting
// the caller to greedy.  The engine must return the incumbent with
// exact=false instead.
TEST(CoverEngine, BudgetExhaustionKeepsIncumbent) {
  const CoverTable t = cyclic_ring(12);
  const MinCoverResult full = solve_min_cover(t, 1'000'000);
  ASSERT_TRUE(full.found);
  ASSERT_TRUE(full.exact);
  EXPECT_EQ(full.columns.size(), 6u);

  bool saw_inexact_incumbent = false;
  for (std::size_t budget = 1; budget <= full.nodes; ++budget) {
    const MinCoverResult r = solve_min_cover(t, budget);
    if (r.found) {
      EXPECT_TRUE(is_valid_cover(t, r.columns)) << "budget " << budget;
      EXPECT_GE(r.columns.size(), full.columns.size()) << "budget " << budget;
      if (!r.exact) saw_inexact_incumbent = true;
    } else {
      // Only acceptable before any complete cover was reached.
      EXPECT_FALSE(r.exact) << "budget " << budget;
    }
  }
  EXPECT_TRUE(saw_inexact_incumbent)
      << "no budget produced a kept incumbent — the regression guard is dead";
}

TEST(CoverEngine, GreedyCoversWideTables) {
  // 130 rows (three words), staggered columns.
  CoverTable t(130, 13);
  for (std::size_t r = 0; r < 130; ++r) t.set(r, r % 13);
  const auto g = greedy_cover(t);
  ASSERT_TRUE(g.has_value());
  EXPECT_TRUE(is_valid_cover(t, *g));
  EXPECT_EQ(g->size(), 13u);
}

// The eager argmax scan greedy_cover replaced (lazy heap): same
// tie-break contract, kept here as the oracle.
std::optional<std::vector<std::size_t>> eager_greedy(const CoverTable& t) {
  const std::size_t words = t.words();
  std::vector<std::uint64_t> uncovered(words, 0);
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    uncovered[r / 64] |= std::uint64_t{1} << (r % 64);
  }
  std::size_t left = t.num_rows();
  std::vector<std::size_t> chosen;
  while (left > 0) {
    std::size_t best = t.num_cols();
    std::size_t best_gain = 0;
    for (std::size_t c = 0; c < t.num_cols(); ++c) {
      std::size_t gain = 0;
      for (std::size_t w = 0; w < words; ++w) {
        gain += static_cast<std::size_t>(
            std::popcount(t.column(c)[w] & uncovered[w]));
      }
      if (gain > best_gain) {
        best_gain = gain;
        best = c;
      }
    }
    if (best == t.num_cols()) return std::nullopt;
    for (std::size_t w = 0; w < words; ++w) uncovered[w] &= ~t.column(best)[w];
    left -= best_gain;
    chosen.push_back(best);
  }
  return chosen;
}

TEST(CoverEngine, LazyGreedyMatchesEagerScanExactly) {
  // The lazy-heap greedy must pick the *identical* column sequence as
  // the eager scan — golden corpus reports depend on the tie-break
  // (largest gain, then lowest column index) never changing.
  std::uint64_t state = 12345;
  const auto next_rand = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t rows = 20 + next_rand() % 120;
    const std::size_t cols = 5 + next_rand() % 60;
    CoverTable t(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      // 1-4 covering columns per row, with deliberate gain collisions.
      const std::size_t k = 1 + next_rand() % 4;
      for (std::size_t i = 0; i < k; ++i) t.set(r, next_rand() % cols);
    }
    const auto lazy = greedy_cover(t);
    const auto eager = eager_greedy(t);
    ASSERT_EQ(lazy.has_value(), eager.has_value()) << "trial " << trial;
    ASSERT_TRUE(lazy.has_value());
    EXPECT_EQ(*lazy, *eager) << "trial " << trial;
  }
}

// Pins the search tree of a budget-truncated chart with a TT small
// enough to evict.  The node count, the incumbent, the certified bound
// and every TT counter are those of an engine that hashes each node on
// entry; hashing the children in the parent must not move them.
// Adding, dropping or reordering a
// probe or a store moves the TT counters (hits and evictions depend on
// which entries are live at each probe), and a changed signature value
// moves the home slots and with them the evictions.
TEST(CoverEngine, TruncatedSearchTreeIsPinned) {
  const CoverTable t = banded_chart();
  search::TranspositionTable tt(16 << 10);  // 1024 slots
  const MinCoverResult r = solve_min_cover(t, 20000, &tt);
  ASSERT_TRUE(r.found);
  EXPECT_FALSE(r.exact);
  EXPECT_TRUE(is_valid_cover(t, r.columns));
  EXPECT_EQ(r.nodes, 20001u);
  EXPECT_EQ(r.columns.size(), 94u);
  EXPECT_EQ(r.lower_bound, 42u);
  const search::TtStats& s = tt.stats();
  EXPECT_EQ(s.hits, 5878u);
  EXPECT_EQ(s.misses, 14122u);
  EXPECT_EQ(s.stores, 9512u);
  EXPECT_EQ(s.evictions, 6703u);
  std::uint64_t column_hash = 0;
  for (std::size_t c : r.columns) column_hash = column_hash * 31 + c;
  EXPECT_EQ(column_hash, 4150696040438395053u);
}

}  // namespace
}  // namespace seance::logic
