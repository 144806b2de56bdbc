// Unit tests for the shared search core: NodeBudget's single accounting
// convention and the TranspositionTable's probe/store/merge/eviction
// mechanics.  The cross-engine soundness and differential properties
// live in tests/test_search_property.cpp.

#include "search/search.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

namespace seance::search {
namespace {

TEST(NodeBudget, ChargesOncePerNodeAndTruncatesPastTheBudget) {
  NodeBudget b(3);
  EXPECT_TRUE(b.exact());
  EXPECT_FALSE(b.exhausted());
  EXPECT_FALSE(b.charge());  // node 1
  EXPECT_FALSE(b.charge());  // node 2
  EXPECT_FALSE(b.charge());  // node 3: exactly at budget, still a proof
  EXPECT_TRUE(b.exact());
  EXPECT_TRUE(b.charge());  // node 4: over
  EXPECT_TRUE(b.exhausted());
  EXPECT_FALSE(b.exact());
  EXPECT_EQ(b.nodes(), 4u);
}

TEST(NodeBudget, ZeroBudgetTruncatesOnTheFirstCharge) {
  // The overrun regression shape: exact must be falsifiable even when
  // the very first expansion exceeds the budget (the historical
  // pre-increment guard reported exact=true here).
  NodeBudget b(0);
  EXPECT_TRUE(b.charge());
  EXPECT_FALSE(b.exact());
  EXPECT_TRUE(b.exhausted());
}

TEST(NodeBudget, ResetRestartsAccounting) {
  NodeBudget b(1);
  EXPECT_FALSE(b.charge());
  EXPECT_TRUE(b.charge());
  ASSERT_FALSE(b.exact());
  b.reset();
  EXPECT_EQ(b.nodes(), 0u);
  EXPECT_TRUE(b.exact());
  EXPECT_FALSE(b.exhausted());
}

TEST(Bound, LowerUpperDecomposition) {
  EXPECT_FALSE(has_lower(Bound::kNone));
  EXPECT_FALSE(has_upper(Bound::kNone));
  EXPECT_TRUE(has_lower(Bound::kLower));
  EXPECT_FALSE(has_upper(Bound::kLower));
  EXPECT_FALSE(has_lower(Bound::kUpper));
  EXPECT_TRUE(has_upper(Bound::kUpper));
  EXPECT_TRUE(has_lower(Bound::kExact));
  EXPECT_TRUE(has_upper(Bound::kExact));
}

TEST(Hashing, DeterministicAndInputSensitive) {
  const char a[] = "abc";
  const char b[] = "abd";
  EXPECT_EQ(fnv64(a, 3), fnv64(a, 3));
  EXPECT_NE(fnv64(a, 3), fnv64(b, 3));
  EXPECT_NE(fnv64(a, 3), fnv64(a, 2));

  const std::uint64_t w1[] = {1, 2};
  const std::uint64_t w2[] = {1, 3};
  EXPECT_EQ(hash_words(w1, 2), hash_words(w1, 2));
  EXPECT_NE(hash_words(w1, 2), hash_words(w2, 2));
  EXPECT_NE(hash_words(w1, 2), hash_words(w1, 1));

  EXPECT_NE(hash_u64(0), 0u);
  EXPECT_NE(hash_u64(1), hash_u64(2));
  // hash_mix is order-dependent: node signatures must distinguish
  // (root, state) from (state, root).
  EXPECT_NE(hash_mix(1, 2), hash_mix(2, 1));
  EXPECT_EQ(hash_mix(1, 2), hash_mix(1, 2));
}

// Byte-wise FNV-1a over the words' bytes, least significant byte first:
// the definition hash_words must keep while it skips zeros.
std::uint64_t reference_hash_words(const std::vector<std::uint64_t>& words) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint64_t w : words) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(Hashing, HashWordsEqualsByteWiseFnv1a) {
  std::mt19937_64 rng(20261020);
  const auto nonzero_byte = [&rng] { return 1 + rng() % 255; };
  // Each kind of word the engines hash: zero words of sparse bitsets,
  // lone bytes, alternating zero bytes, dense words and raw noise.
  const std::vector<std::function<std::uint64_t()>> kinds = {
      [] { return std::uint64_t{0}; },
      [&] { return nonzero_byte() << (8 * (rng() % 8)); },
      [&] {
        std::uint64_t w = 0;
        for (int b = static_cast<int>(rng() % 2); b < 8; b += 2) {
          w |= nonzero_byte() << (8 * b);
        }
        return w;
      },
      [&] {
        std::uint64_t w = 0;
        for (int b = 0; b < 8; ++b) w |= nonzero_byte() << (8 * b);
        return w;
      },
      [&] { return rng(); },
      [&] { return rng() & rng() & rng(); },
      // Four to seven nonzero bytes scattered among zero ones (the words
      // routed to the eight-step path by their zero-byte count); a third
      // of the nonzero bytes are 0x01, which the zero-byte mask also
      // marks when a zero byte lies just below.
      [&] {
        std::uint64_t w = 0;
        const int nonzero = 4 + static_cast<int>(rng() % 4);
        for (int placed = 0; placed < nonzero;) {
          const int b = static_cast<int>(rng() % 8);
          if (((w >> (8 * b)) & 0xff) != 0) continue;
          w |= (rng() % 3 == 0 ? 1 : nonzero_byte()) << (8 * b);
          ++placed;
        }
        return w;
      },
  };
  for (std::size_t count = 0; count <= 40; ++count) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<std::uint64_t> words(count);
      // The last kind index mixes every kind within one array.
      const std::size_t kind = trial % (kinds.size() + 1);
      for (std::uint64_t& w : words) {
        w = kind < kinds.size() ? kinds[kind]() : kinds[rng() % kinds.size()]();
      }
      EXPECT_EQ(hash_words(words.data(), count), reference_hash_words(words))
          << "count " << count << " kind " << kind;
    }
  }
  EXPECT_EQ(hash_words(nullptr, 0), 1469598103934665603ull);
  const std::uint64_t mixed[] = {0x0123456789abcdefull, 0, 0x00ff000000000000ull,
                                 0x8000000000000001ull};
  EXPECT_EQ(hash_words(mixed, 4), 4559267756409137621ull);
  std::uint64_t sparse[12] = {};
  sparse[11] = 1;
  EXPECT_EQ(hash_words(sparse, 12), 875406090521378274ull);
}

TEST(TranspositionTable, CapacityIsPowerOfTwoWithAProbeWindowFloor) {
  const TranspositionTable tiny(0);
  EXPECT_EQ(tiny.capacity(), 8u);  // one probe window even at zero bytes
  const TranspositionTable small(1 << 10);
  const TranspositionTable big(1 << 20);
  for (std::size_t cap :
       {tiny.capacity(), small.capacity(), big.capacity()}) {
    EXPECT_GE(cap, 8u);
    EXPECT_EQ(cap & (cap - 1), 0u) << cap;
  }
  EXPECT_GT(big.capacity(), small.capacity());
}

TEST(TranspositionTable, MissThenStoreThenHit) {
  TranspositionTable tt(1 << 16);
  EXPECT_FALSE(tt.probe(42).has_value());
  tt.store(42, Bound::kLower, 5);
  const auto e = tt.probe(42);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->bound, Bound::kLower);
  EXPECT_EQ(e->value, 5u);
  EXPECT_EQ(tt.size(), 1u);
  EXPECT_EQ(tt.stats().misses, 1u);
  EXPECT_EQ(tt.stats().hits, 1u);
  EXPECT_EQ(tt.stats().stores, 1u);
  EXPECT_EQ(tt.stats().evictions, 0u);
}

TEST(TranspositionTable, ZeroKeyIsRemappedNotTreatedAsEmpty) {
  TranspositionTable tt(1 << 16);
  tt.store(0, Bound::kExact, 7);
  const auto e = tt.probe(0);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->bound, Bound::kExact);
  EXPECT_EQ(e->value, 7u);
  EXPECT_EQ(tt.size(), 1u);
}

TEST(TranspositionTable, StoringNoneIsANoOp) {
  TranspositionTable tt(1 << 16);
  tt.store(42, Bound::kNone, 9);
  EXPECT_EQ(tt.size(), 0u);
  EXPECT_EQ(tt.stats().stores, 0u);
  EXPECT_FALSE(tt.probe(42).has_value());
}

TEST(TranspositionTable, LowerMergeKeepsTheMaxValue) {
  TranspositionTable tt(1 << 16);
  tt.store(1, Bound::kLower, 3);
  tt.store(1, Bound::kLower, 5);
  tt.store(1, Bound::kLower, 4);
  const auto e = tt.probe(1);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->bound, Bound::kLower);
  EXPECT_EQ(e->value, 5u);
  EXPECT_EQ(tt.size(), 1u);       // merges, not fresh inserts
  EXPECT_EQ(tt.stats().stores, 3u);  // but each merge counts a store
}

TEST(TranspositionTable, UpperMergeKeepsTheMinValue) {
  TranspositionTable tt(1 << 16);
  tt.store(1, Bound::kUpper, 9);
  tt.store(1, Bound::kUpper, 4);
  tt.store(1, Bound::kUpper, 6);
  const auto e = tt.probe(1);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->bound, Bound::kUpper);
  EXPECT_EQ(e->value, 4u);
}

TEST(TranspositionTable, LowerMeetingUpperAtTheSameValuePromotesExact) {
  TranspositionTable tt(1 << 16);
  tt.store(1, Bound::kLower, 5);
  tt.store(1, Bound::kUpper, 5);
  const auto e = tt.probe(1);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->bound, Bound::kExact);
  EXPECT_EQ(e->value, 5u);
}

TEST(TranspositionTable, LowerReplacesUpperButNotTheReverse) {
  TranspositionTable tt(1 << 16);
  // The Lower side is the pruning side: it replaces a stored Upper...
  tt.store(1, Bound::kUpper, 7);
  tt.store(1, Bound::kLower, 3);
  auto e = tt.probe(1);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->bound, Bound::kLower);
  EXPECT_EQ(e->value, 3u);
  // ...but an Upper never displaces a stored Lower.
  tt.store(1, Bound::kUpper, 9);
  e = tt.probe(1);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->bound, Bound::kLower);
  EXPECT_EQ(e->value, 3u);
}

TEST(TranspositionTable, ExactIsStickyAndIncomingExactOverwrites) {
  TranspositionTable tt(1 << 16);
  tt.store(1, Bound::kLower, 2);
  tt.store(1, Bound::kExact, 6);  // incoming Exact overwrites
  auto e = tt.probe(1);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->bound, Bound::kExact);
  EXPECT_EQ(e->value, 6u);

  const std::uint64_t stores_before = tt.stats().stores;
  tt.store(1, Bound::kLower, 9);  // sticky: nothing changes...
  tt.store(1, Bound::kUpper, 1);
  e = tt.probe(1);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->bound, Bound::kExact);
  EXPECT_EQ(e->value, 6u);
  EXPECT_EQ(tt.stats().stores, stores_before);  // ...and nothing counts
}

TEST(TranspositionTable, FullProbeWindowEvictsTheHomeSlotDeterministically) {
  TranspositionTable tt(0);  // capacity 8 == one probe window
  ASSERT_EQ(tt.capacity(), 8u);
  // Eight keys that all hash to home slot 0 fill the whole table.
  for (std::uint64_t k = 8; k <= 64; k += 8) {
    tt.store(k, Bound::kLower, static_cast<std::uint32_t>(k));
  }
  EXPECT_EQ(tt.size(), 8u);
  EXPECT_EQ(tt.stats().evictions, 0u);
  // A ninth same-home key must displace the home slot (key 8), not fail
  // and not grow.
  tt.store(72, Bound::kLower, 72);
  EXPECT_EQ(tt.size(), 8u);
  EXPECT_EQ(tt.stats().evictions, 1u);
  EXPECT_FALSE(tt.probe(8).has_value());
  for (std::uint64_t k = 16; k <= 72; k += 8) {
    const auto e = tt.probe(k);
    ASSERT_TRUE(e.has_value()) << k;
    EXPECT_EQ(e->value, static_cast<std::uint32_t>(k));
  }
}

TEST(TranspositionTable, DumpReturnsEveryLiveEntry) {
  TranspositionTable tt(1 << 16);
  tt.store(11, Bound::kLower, 1);
  tt.store(22, Bound::kUpper, 2);
  tt.store(33, Bound::kExact, 3);
  const auto entries = tt.dump();
  ASSERT_EQ(entries.size(), 3u);
  bool saw11 = false, saw22 = false, saw33 = false;
  for (const auto& [key, bound, value] : entries) {
    if (key == 11) saw11 = (bound == Bound::kLower && value == 1);
    if (key == 22) saw22 = (bound == Bound::kUpper && value == 2);
    if (key == 33) saw33 = (bound == Bound::kExact && value == 3);
  }
  EXPECT_TRUE(saw11);
  EXPECT_TRUE(saw22);
  EXPECT_TRUE(saw33);
}

TEST(TranspositionTable, ClearDropsEntriesKeepsCapacityAndStats) {
  TranspositionTable tt(1 << 16);
  tt.store(5, Bound::kExact, 1);
  tt.store(6, Bound::kLower, 2);
  ASSERT_TRUE(tt.probe(5).has_value());
  const std::size_t capacity = tt.capacity();
  const std::uint64_t stores = tt.stats().stores;
  const std::uint64_t hits = tt.stats().hits;
  tt.clear();
  EXPECT_EQ(tt.size(), 0u);
  EXPECT_EQ(tt.capacity(), capacity);
  EXPECT_EQ(tt.stats().stores, stores);  // cumulative counters survive
  EXPECT_EQ(tt.stats().hits, hits);
  EXPECT_FALSE(tt.probe(5).has_value());  // entries do not
  EXPECT_FALSE(tt.probe(6).has_value());
  tt.store(5, Bound::kUpper, 9);  // the table still works after a clear
  const auto entry = tt.probe(5);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->bound, Bound::kUpper);
  EXPECT_EQ(entry->value, 9u);
}

TEST(TranspositionTable, SlotCountForMatchesTheConstructor) {
  for (const std::size_t bytes :
       {std::size_t{0}, std::size_t{1} << 10, std::size_t{1} << 16,
        std::size_t{16} << 20}) {
    EXPECT_EQ(TranspositionTable(bytes).capacity(),
              TranspositionTable::slot_count_for(bytes));
  }
  // Different sizes really produce different capacities (the mismatch
  // check in core::synthesize depends on this being discriminating).
  EXPECT_NE(TranspositionTable::slot_count_for(1 << 16),
            TranspositionTable::slot_count_for(16 << 20));
}

TEST(TranspositionTable, SlotCountForSaturatesInsteadOfHanging) {
  // Sizing used to multiply: near SIZE_MAX the product wrapped to 0 and
  // the doubling loop never ended.
  const std::size_t max = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(TranspositionTable::slot_count_for(max), std::size_t{1} << 59);
  EXPECT_EQ(TranspositionTable::slot_count_for(max << 20),
            std::size_t{1} << 59);
  EXPECT_EQ(TranspositionTable::slot_count_for(std::size_t{16} << 20),
            std::size_t{1} << 20);
}

TEST(TranspositionTable, UnallocatableSizeIsAClearError) {
  // 2^59 slots exceed the vector's max_size, so this fails before any
  // allocation is attempted.
  try {
    const TranspositionTable tt(std::numeric_limits<std::size_t>::max());
    FAIL() << "capacity " << tt.capacity();
  } catch (const TtAllocationError& e) {
    EXPECT_NE(std::string(e.what()).find("transposition table: cannot allocate"),
              std::string::npos)
        << e.what();
  }
}

TEST(TranspositionTable, PrefetchChangesNoEntryAndNoStat) {
  TranspositionTable tt(1 << 10);
  for (std::uint64_t k = 1; k <= 40; ++k) tt.store(k * 0x9e3779b9ull, Bound::kLower, 3);
  ASSERT_TRUE(tt.probe(0x9e3779b9ull).has_value());
  EXPECT_FALSE(tt.probe(7).has_value());
  const TtStats before = tt.stats();
  const auto entries = tt.dump();
  for (std::uint64_t k = 0; k <= 100; ++k) tt.prefetch(k * 0x9e3779b9ull);
  tt.prefetch(0);
  const TtStats& after = tt.stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.stores, before.stores);
  EXPECT_EQ(after.evictions, before.evictions);
  EXPECT_EQ(tt.dump(), entries);
  EXPECT_EQ(tt.size(), entries.size());
}

TEST(TtStats, AccumulateAcrossWorkers) {
  TtStats a{1, 2, 3, 4};
  const TtStats b{10, 20, 30, 40};
  a += b;
  EXPECT_EQ(a.hits, 11u);
  EXPECT_EQ(a.misses, 22u);
  EXPECT_EQ(a.stores, 33u);
  EXPECT_EQ(a.evictions, 44u);
}

}  // namespace
}  // namespace seance::search
