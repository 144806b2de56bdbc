// Seeded covering charts shared by the cover-engine tests and
// bench_search_tt: fixed inputs whose branch-and-bound tree is pinned.

#pragma once

#include <cstddef>
#include <cstdint>

#include "logic/cover_engine.hpp"

namespace seance::logic {

/// A chart shaped like the corpus's budget-truncated prime charts: 640
/// rows (ten words), each covered by 2-5 of 160 columns drawn near the
/// row's own band, so every column is sparse and most of its words are
/// zero.  No unit rows and little dominance: the B&B runs out any
/// budget below a few hundred thousand nodes.
inline CoverTable banded_chart() {
  constexpr std::size_t kRows = 640;
  constexpr std::size_t kCols = 160;
  std::uint64_t state = 0x5eed0fc0fe4ull;
  const auto next_rand = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  CoverTable t(kRows, kCols);
  for (std::size_t r = 0; r < kRows; ++r) {
    const std::size_t band = r * kCols / kRows;
    const std::size_t k = 2 + next_rand() % 4;
    for (std::size_t i = 0; i < k; ++i) {
      t.set(r, (band + next_rand() % 9 + kCols - 4) % kCols);
    }
  }
  return t;
}

}  // namespace seance::logic
