#include "search/search.hpp"

#include <array>
#include <bit>
#include <string>

namespace seance::search {
namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// kFnvPrimePow[k] == kFnvPrime^k: the FNV-1a step of k zero bytes.
constexpr std::array<std::uint64_t, 9> kFnvPrimePow = [] {
  std::array<std::uint64_t, 9> pow{1};
  for (std::size_t k = 1; k < pow.size(); ++k) pow[k] = pow[k - 1] * kFnvPrime;
  return pow;
}();

// `(w - kLowBytes) & ~w & kHighBits` is nonzero iff w has a zero byte.
// Its bits mark every zero byte, and also a 0x01 byte just above a zero
// one (the borrow), so their count can only overstate w's zero bytes.
constexpr std::uint64_t kLowBytes = 0x0101010101010101ull;
constexpr std::uint64_t kHighBits = 0x8080808080808080ull;

// Set bits of a mask holding only byte-high bits, summed into the top
// byte by one multiply (no popcount instruction at the default -march).
constexpr std::uint64_t zero_byte_count(std::uint64_t high_bits) {
  return ((high_bits >> 7) * kLowBytes) >> 56;
}

// Replacement key for an incoming key of 0 (the empty-slot sentinel).
constexpr std::uint64_t kZeroKey = 0x9e3779b97f4a7c15ull;

// Linear probe window. Short enough to stay in one or two cache
// lines, long enough that deterministic home-slot eviction is rare.
constexpr std::size_t kProbeWindow = 8;

}  // namespace

std::uint64_t fnv64(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = kFnvBasis;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t hash_words(const std::uint64_t* words, std::size_t count) {
  // A zero byte's FNV-1a step is a bare `*= prime`, so the state is kept
  // as (g, m) with hash == g * m: a zero byte multiplies m, off g's
  // dependency chain, and a nonzero byte b takes g = g * m ^ b, m =
  // prime.  A dense word then costs the byte loop's eight multiply-xor
  // steps, a zero word one multiply of m, and a run of zero bytes in a
  // mixed word one multiply of m.  Before the first nonzero byte m is 1,
  // but g and m are known at entry, so that multiply runs while the
  // first word loads instead of lengthening the chain.  The mixed-word
  // loop takes one data-dependent trip per nonzero-byte run, which loses
  // to the eight straight steps once a word has five or more nonzero
  // bytes, so words with at most three zero bytes take the steps too.
  std::uint64_t g = kFnvBasis;
  std::uint64_t m = 1;
  const auto eight_steps = [&](std::uint64_t w) {
    g = (g * m) ^ (w & 0xff);
#pragma GCC unroll 7
    for (int b = 1; b < 8; ++b) {
      w >>= 8;
      g = (g * kFnvPrime) ^ (w & 0xff);
    }
    m = kFnvPrime;
  };
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t w = words[i];
    const std::uint64_t zero_bytes = (w - kLowBytes) & ~w & kHighBits;
    if (zero_bytes == 0) {
      eight_steps(w);
    } else if (w == 0) {
      m *= kFnvPrimePow[8];
    } else if (zero_byte_count(zero_bytes) <= 3) {
      eight_steps(w);
    } else {
      int left = 8;  // bytes of w not yet folded in
      do {
        const int zeros = std::countr_zero(w) >> 3;
        m *= kFnvPrimePow[zeros];
        w >>= 8 * zeros;
        g = (g * m) ^ (w & 0xff);
        m = kFnvPrime;
        w >>= 8;
        left -= zeros + 1;
      } while (w != 0);
      m *= kFnvPrimePow[left];
    }
  }
  return g * m;
}

std::uint64_t hash_u64(std::uint64_t x) {
  // splitmix64 finalizer.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t hash_mix(std::uint64_t a, std::uint64_t b) {
  return hash_u64(a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2)));
}

std::size_t TranspositionTable::slot_count_for(std::size_t bytes) {
  // "The doubled table still fits", divided rather than multiplied:
  // `slots * 2 * sizeof(Slot)` wraps to 0 for `bytes` near SIZE_MAX.
  std::size_t slots = kProbeWindow;
  while (slots <= bytes / (2 * sizeof(Slot))) slots *= 2;
  return slots;
}

TranspositionTable::TranspositionTable(std::size_t bytes) {
  const std::size_t slots = slot_count_for(bytes);
  try {
    slots_.assign(slots, Slot{});
  } catch (const std::exception&) {  // std::bad_alloc, std::length_error
    throw TtAllocationError("transposition table: cannot allocate " +
                             std::to_string((slots * sizeof(Slot)) >> 20) +
                             " MiB");
  }
  mask_ = slots - 1;
}

std::optional<TranspositionTable::Entry> TranspositionTable::probe(
    std::uint64_t key) {
  if (key == 0) key = kZeroKey;
  const std::size_t home = static_cast<std::size_t>(key & mask_);
  for (std::size_t i = 0; i < kProbeWindow; ++i) {
    const Slot& s = slots_[(home + i) & mask_];
    if (s.key == key) {
      ++stats_.hits;
      return Entry{s.bound, s.value};
    }
    if (s.key == 0) break;  // never displaced past an empty slot
  }
  ++stats_.misses;
  return std::nullopt;
}

void TranspositionTable::prefetch(std::uint64_t key) const {
  if (key == 0) key = kZeroKey;
  const std::size_t home = static_cast<std::size_t>(key & mask_);
  // With 16-byte slots the window touches two or three cache lines:
  // fetch the home slot's line and the last slot's (which also covers
  // a window that wraps at the end).  A middle line is read only by a
  // probe that walks past the first few slots.
  __builtin_prefetch(&slots_[home]);
  __builtin_prefetch(&slots_[(home + kProbeWindow - 1) & mask_]);
}

void TranspositionTable::store(std::uint64_t key, Bound bound,
                               std::uint32_t value) {
  if (bound == Bound::kNone) return;
  if (key == 0) key = kZeroKey;
  const std::size_t home = static_cast<std::size_t>(key & mask_);
  Slot* empty = nullptr;
  for (std::size_t i = 0; i < kProbeWindow; ++i) {
    Slot& s = slots_[(home + i) & mask_];
    if (s.key == key) {
      // Merge, keeping the most informative bound. Exact is sticky.
      if (s.bound == Bound::kExact) return;
      if (bound == Bound::kExact) {
        s.bound = bound;
        s.value = value;
      } else if (bound == s.bound) {
        if (bound == Bound::kLower) {
          if (value > s.value) s.value = value;
        } else {
          if (value < s.value) s.value = value;
        }
      } else if (value == s.value) {
        s.bound = Bound::kExact;  // lower meets upper
      } else if (bound == Bound::kLower) {
        // Prefer the pruning side: Lower replaces a looser Upper.
        s.bound = bound;
        s.value = value;
      }
      ++stats_.stores;
      return;
    }
    if (s.key == 0 && empty == nullptr) empty = &s;
  }
  Slot* target = empty;
  if (target == nullptr) {
    target = &slots_[home];  // deterministic replacement
    ++stats_.evictions;
  } else {
    ++live_;
  }
  target->key = key;
  target->bound = bound;
  target->value = value;
  ++stats_.stores;
}

void TranspositionTable::clear() {
  slots_.assign(slots_.size(), Slot{});
  live_ = 0;
}

std::vector<std::tuple<std::uint64_t, Bound, std::uint32_t>>
TranspositionTable::dump() const {
  std::vector<std::tuple<std::uint64_t, Bound, std::uint32_t>> out;
  out.reserve(live_);
  for (const Slot& s : slots_) {
    if (s.key != 0) out.emplace_back(s.key, s.bound, s.value);
  }
  return out;
}

}  // namespace seance::search
