// Differential and regression suite for the word-parallel prime engine:
// prime_engine::compute_primes against the retained hash-map oracle
// (reference_compute_primes) over random functions at 4-14 variables —
// covering both the level-merge path and the sharp (dense ON∪DC) path
// with its persistent absorption index — plus a regression pinning the
// canonical prime order, incidence bitmatrix correctness against
// brute-force Cube::contains, and direct checks of the absorption index
// against a brute-force scan and of its flat hash set against std::set.

#include "logic/prime_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "logic/absorb_index.hpp"
#include "logic/qm.hpp"
#include "oracles/checks.hpp"
#include "oracles/qm_reference.hpp"
#include "testutil.hpp"

namespace seance::logic {
namespace {

using testutil::random_function;

struct DiffCase {
  int num_vars;
  double p_on;
  double p_dc;
  std::uint64_t seed;
};

void PrintTo(const DiffCase& c, std::ostream* os) {
  *os << c.num_vars << "v on=" << c.p_on << " dc=" << c.p_dc
      << " seed=" << c.seed;
}

class PrimeEngineDiff : public ::testing::TestWithParam<DiffCase> {};

TEST_P(PrimeEngineDiff, MatchesReferencePrimesExactly) {
  const auto& p = GetParam();
  const auto f = random_function(p.num_vars, p.p_on, p.p_dc, p.seed);

  const std::vector<Cube> engine =
      prime_engine::compute_primes(p.num_vars, f.on, f.dc);
  const std::vector<Cube> reference =
      reference_compute_primes(p.num_vars, f.on, f.dc);

  ASSERT_EQ(engine.size(), reference.size());
  for (std::size_t i = 0; i < engine.size(); ++i) {
    EXPECT_EQ(engine[i].key(), reference[i].key()) << "at index " << i;
  }
}

TEST_P(PrimeEngineDiff, IncidenceMatchesBruteForceContains) {
  const auto& p = GetParam();
  const auto f = random_function(p.num_vars, p.p_on, p.p_dc, p.seed);

  const prime_engine::PrimeIncidence pi =
      prime_engine::compute_incidence(p.num_vars, f.on, f.dc);
  ASSERT_EQ(pi.incidence.num_rows(), f.on.size());
  ASSERT_EQ(pi.incidence.num_cols(), pi.primes.size());
  for (std::size_t c = 0; c < pi.primes.size(); ++c) {
    bool covers_some = false;
    for (std::size_t r = 0; r < f.on.size(); ++r) {
      const bool expected = pi.primes[c].contains(f.on[r]);
      EXPECT_EQ(pi.incidence.covers(c, r), expected)
          << "prime " << c << " minterm " << f.on[r];
      covers_some = covers_some || expected;
    }
    // The incidence path keeps exactly the ON-covering primes.
    EXPECT_TRUE(covers_some) << "DC-only prime " << c << " not filtered";
  }
}

TEST_P(PrimeEngineDiff, OnPrimesMatchIncidencePrimes) {
  // The table-free all-primes filter (used by fsv covers) must keep
  // exactly the primes the incidence path keeps, in the same order.
  const auto& p = GetParam();
  const auto f = random_function(p.num_vars, p.p_on, p.p_dc, p.seed);
  const std::vector<Cube> on_primes =
      prime_engine::compute_on_primes(p.num_vars, f.on, f.dc);
  const prime_engine::PrimeIncidence pi =
      prime_engine::compute_incidence(p.num_vars, f.on, f.dc);
  ASSERT_EQ(on_primes.size(), pi.primes.size());
  for (std::size_t i = 0; i < on_primes.size(); ++i) {
    EXPECT_EQ(on_primes[i].key(), pi.primes[i].key()) << "at index " << i;
  }
}

std::vector<DiffCase> diff_cases() {
  std::vector<DiffCase> cases;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    // Sparse / balanced shapes: the word-parallel level merge.
    cases.push_back({4, 0.35, 0.15, seed});
    cases.push_back({6, 0.3, 0.2, seed * 5});
    cases.push_back({8, 0.25, 0.2, seed * 7});
    cases.push_back({10, 0.15, 0.2, seed * 11});
    // Dense ON∪DC shapes (small OFF-set): the sharp path.  This is the
    // Y/fsv-equation regime — deep machines specify almost nothing.
    cases.push_back({6, 0.1, 0.85, seed * 13});
    cases.push_back({8, 0.05, 0.92, seed * 17});
    cases.push_back({10, 0.03, 0.93, seed * 19});
  }
  // A couple of heavier charts at the top of the tested range (the
  // reference oracle needs real time per call past 12 variables).
  cases.push_back({12, 0.3, 0.2, 97});
  cases.push_back({12, 0.02, 0.95, 98});
  // 14-var high-DC chart: deep enough that the sharp path's antichain
  // reaches thousands of cubes — the regime where absorption used to go
  // quadratic (ROADMAP item; now served by the popcount-bucketed
  // care-submask index).  Still oracle-covered: the reference generator
  // handles it in seconds, just not in bulk.
  cases.push_back({14, 0.01, 0.95, 99});
  // High-DC charts at 10-13 variables, several seeds each: the sharp
  // path's absorption index in every state it can reach.  Each antichain
  // grows well past the size at which the index is built, every OFF
  // point erases its split parents from the index and inserts the
  // accepted fragments, and care masks lose their last live cube and
  // later gain one again (an instrumented build counted, per case, one
  // index build, ~1k-25k erases, ~400-4800 masks emptied and ~100-1100
  // re-filled).
  for (int vars = 10; vars <= 13; ++vars) {
    const double p_dc = vars <= 11 ? 0.9 : 0.93;
    const std::uint64_t seeds = vars == 13 ? 2 : 3;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      cases.push_back({vars, 0.03, p_dc, seed * 1000 + static_cast<std::uint64_t>(vars)});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomFunctions, PrimeEngineDiff,
                         ::testing::ValuesIn(diff_cases()));

// The index's flat set, driven directly: random inserts, erases and
// lookups over a small key universe (so erases usually hit) must agree
// with std::set after every operation.
TEST(FlatCubeSet, RandomOpsMatchStdSet) {
  detail::FlatCubeSet set;
  std::set<std::pair<std::uint32_t, std::uint32_t>> model;
  std::mt19937_64 rng(20240611);
  const auto key = [&] {
    const std::uint32_t care = static_cast<std::uint32_t>(rng() % 32);
    return std::pair{care, static_cast<std::uint32_t>(rng()) & care};
  };
  for (int op = 0; op < 40000; ++op) {
    const auto [care, value] = key();
    switch (rng() % 3) {
      case 0:
        EXPECT_EQ(set.insert(care, value), model.insert({care, value}).second);
        break;
      case 1:
        EXPECT_EQ(set.erase(care, value), model.erase({care, value}) == 1);
        break;
      default:
        EXPECT_EQ(set.contains(care, value), model.count({care, value}) == 1);
    }
    ASSERT_EQ(set.size(), model.size()) << "after op " << op;
    EXPECT_LE(set.size() * 4, set.capacity());
  }
  for (std::uint32_t care = 0; care < 32; ++care) {
    for (std::uint32_t value = 0; value <= care; ++value) {
      if ((value & ~care) != 0) continue;
      EXPECT_EQ(set.contains(care, value), model.count({care, value}) == 1);
    }
  }
}

// Backward-shift erase across the table end: keys homed at the last two
// slots spill over into slots 0.., where keys homed at slots 0 and 1 get
// pushed further along.  Erasing in every position of that cluster must
// leave each remaining key reachable from its home slot.
TEST(FlatCubeSet, EraseInsideClusterThatWrapsPastTheEnd) {
  detail::FlatCubeSet set;
  const std::size_t cap = set.capacity();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> tail_keys;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> head_keys;
  for (std::uint32_t v = 0; tail_keys.size() < 8 || head_keys.size() < 6; ++v) {
    const std::size_t home = set.home_slot(0xffffffu, v & 0xffffffu);
    if (home + 2 >= cap && tail_keys.size() < 8) tail_keys.push_back({0xffffffu, v});
    if (home <= 1 && head_keys.size() < 6) head_keys.push_back({0xffffffu, v});
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> keys = tail_keys;
  keys.insert(keys.end(), head_keys.begin(), head_keys.end());
  ASSERT_LE(keys.size() * 4, cap) << "inserts must not trigger a grow";

  std::mt19937_64 rng(7);
  for (int round = 0; round < 50; ++round) {
    set.reset(0);
    ASSERT_EQ(set.capacity(), cap);
    std::shuffle(keys.begin(), keys.end(), rng);
    for (const auto& [care, value] : keys) EXPECT_TRUE(set.insert(care, value));
    std::vector<std::pair<std::uint32_t, std::uint32_t>> order = keys;
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t gone = 0; gone < order.size(); ++gone) {
      EXPECT_TRUE(set.erase(order[gone].first, order[gone].second));
      EXPECT_FALSE(set.erase(order[gone].first, order[gone].second));
      for (std::size_t k = 0; k < order.size(); ++k) {
        EXPECT_EQ(set.contains(order[k].first, order[k].second), k > gone)
            << "round " << round << " after erasing " << gone + 1;
      }
    }
    EXPECT_EQ(set.size(), 0u);
  }
}

// The absorption index itself, driven directly on 8 variables: a pool
// of 8 care masks (3-5 care bits) with 3 cubes each is toggled in and
// out at random, so masks keep losing their last live cube and gaining
// one back, and every absorbs() answer must equal a brute-force scan of
// the live cubes.  The fragments are minterms (all 8 care bits), so
// every absorber sits three or more bits below them, where only the care
// buckets find it — a live mask missing from its bucket shows up as a
// wrong answer.
TEST(AbsorbIndex, AnswersMatchBruteForceUnderInsertAndErase) {
  constexpr std::uint32_t kFull = 0xff;
  std::mt19937_64 rng(99);
  std::vector<detail::SharpCube> pool;
  for (int m = 0; m < 8; ++m) {
    std::uint32_t care = 0;
    while (std::popcount(care) < 3 + m % 3) care |= 1u << (rng() % 8);
    std::set<std::uint32_t> values;  // distinct cubes: one pool entry each
    while (values.size() < 3) values.insert(static_cast<std::uint32_t>(rng()) & care);
    for (const std::uint32_t v : values) pool.push_back({care, v});
  }
  std::vector<char> live(pool.size(), 0);
  detail::AbsorbIndex index(kFull, {});
  int absorbed = 0;
  for (int op = 0; op < 20000; ++op) {
    const std::size_t i = rng() % pool.size();
    if (live[i] != 0) {
      index.erase(pool[i]);
    } else {
      index.insert(pool[i]);
    }
    live[i] ^= 1;
    const detail::SharpCube f{kFull, static_cast<std::uint32_t>(rng()) & kFull};
    bool expected = false;
    for (std::size_t k = 0; k < pool.size(); ++k) {
      const detail::SharpCube& c = pool[k];
      expected = expected || (live[k] != 0 && (c.care & ~f.care) == 0 &&
                              ((c.value ^ f.value) & c.care) == 0);
    }
    ASSERT_EQ(index.absorbs(f), expected)
        << "op " << op << " fragment care " << f.care << " value " << f.value;
    absorbed += expected ? 1 : 0;
  }
  // Both answers must occur often for the comparison to mean much.
  EXPECT_GT(absorbed, 4000);
  EXPECT_LT(absorbed, 16000);
}

// The canonical prime order (fewest literals first, then Cube::key) is a
// documented contract: downstream cover selection, the golden corpus,
// and the all-primes fsv equations all depend on it.  Pinned on the
// classic McCluskey example and a don't-care variant.
TEST(PrimeEngineRegression, CanonicalOrderIsPinned) {
  const std::vector<Minterm> on{4, 8, 9, 10, 11, 12, 14, 15};
  const std::vector<Cube> primes = prime_engine::compute_primes(4, on, {});
  const std::vector<std::string> expected{"0--1", "-1-1", "--01", "001-"};
  ASSERT_EQ(primes.size(), expected.size());
  for (std::size_t i = 0; i < primes.size(); ++i) {
    EXPECT_EQ(primes[i].to_string(), expected[i]);
  }
}

TEST(PrimeEngineRegression, CanonicalOrderWithDontCaresIsPinned) {
  const std::vector<Minterm> on{0, 1, 2, 5, 6, 7};
  const std::vector<Minterm> dc{3};
  const std::vector<Cube> primes = prime_engine::compute_primes(3, on, dc);
  const std::vector<std::string> expected{"1--", "-1-", "--0"};
  ASSERT_EQ(primes.size(), expected.size());
  for (std::size_t i = 0; i < primes.size(); ++i) {
    EXPECT_EQ(primes[i].to_string(), expected[i]);
  }
}

TEST(PrimeEngineRegression, EveryEmittedCubeIsAPrimeImplicant) {
  for (std::uint64_t seed : {3u, 21u, 77u}) {
    const auto f = random_function(7, 0.3, 0.25, seed);
    for (const Cube& c : prime_engine::compute_primes(7, f.on, f.dc)) {
      EXPECT_TRUE(is_prime_implicant(c, 7, f.on, f.dc)) << c.to_string();
    }
  }
}

TEST(PrimeEngineEdge, EmptyFunctionHasNoPrimes) {
  EXPECT_TRUE(prime_engine::compute_primes(5, {}, {}).empty());
  const prime_engine::PrimeIncidence pi =
      prime_engine::compute_incidence(5, {}, {});
  EXPECT_TRUE(pi.primes.empty());
  EXPECT_EQ(pi.incidence.num_rows(), 0u);
  EXPECT_EQ(pi.incidence.num_cols(), 0u);
}

TEST(PrimeEngineEdge, DcOnlyFunctionKeepsPrimesButEmptyIncidence) {
  const std::vector<Minterm> dc{1, 3, 5, 7};
  EXPECT_FALSE(prime_engine::compute_primes(3, {}, dc).empty());
  const prime_engine::PrimeIncidence pi =
      prime_engine::compute_incidence(3, {}, dc);
  EXPECT_TRUE(pi.primes.empty());  // nothing covers an ON minterm
  EXPECT_EQ(pi.incidence.num_rows(), 0u);
}

TEST(PrimeEngineEdge, FullSpaceCollapsesToUniversalCube) {
  // ON = the whole space: the single prime is the universal cube (sharp
  // path with an empty OFF list).
  std::vector<Minterm> on;
  for (Minterm m = 0; m < 16; ++m) on.push_back(m);
  const std::vector<Cube> primes = prime_engine::compute_primes(4, on, {});
  ASSERT_EQ(primes.size(), 1u);
  EXPECT_EQ(primes[0].literal_count(), 0);
  const prime_engine::PrimeIncidence pi =
      prime_engine::compute_incidence(4, on, {});
  ASSERT_EQ(pi.primes.size(), 1u);
  for (std::size_t r = 0; r < on.size(); ++r) {
    EXPECT_TRUE(pi.incidence.covers(0, r));
  }
}

TEST(PrimeEngineEdge, ZeroVariableFunction) {
  const std::vector<Minterm> on{0};
  const std::vector<Cube> primes = prime_engine::compute_primes(0, on, {});
  ASSERT_EQ(primes.size(), 1u);
  EXPECT_EQ(primes[0].literal_count(), 0);
}

TEST(PrimeEngineEdge, DuplicatedAndUnsortedInputIsTolerated) {
  const std::vector<Minterm> on{9, 4, 9, 15, 4, 8, 10, 11, 12, 14, 15, 8};
  const std::vector<Cube> a = prime_engine::compute_primes(4, on, {});
  const std::vector<Minterm> clean{4, 8, 9, 10, 11, 12, 14, 15};
  const std::vector<Cube> b = prime_engine::compute_primes(4, clean, {});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key(), b[i].key());
  }
}

}  // namespace
}  // namespace seance::logic
