// The prime engine's sharp-path absorption index (prime_engine.cpp) and
// the open-addressing set of packed (care, value) cube keys under it,
// kept in their own header so both can be unit-tested directly: the set
// against std::set, the index against a brute-force antichain scan.

#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "logic/cube.hpp"

namespace seance::logic::detail {

/// Power-of-two capacity, splitmix64-finalizer mix, linear probing.
/// Load stays at or below 1/4: the absorption probes it serves mostly
/// miss, and a miss walks the whole cluster at its slot.  `erase`
/// backward-shifts the rest of the cluster into the hole, so there are
/// no tombstones and a probe still stops at the first empty slot.
/// Keys stay under 2^48 (care and value are kMaxVars-bit), so all-ones
/// is a safe empty sentinel.
class FlatCubeSet {
 public:
  FlatCubeSet() { reset(0); }

  /// Empties the set with room for `expected` keys before the first grow.
  void reset(std::size_t expected) {
    std::size_t cap = 64;
    while (cap < expected * kMaxLoadInverse) cap <<= 1;
    if (cap != slots_.size()) {
      slots_.assign(cap, kEmpty);
    } else {
      std::fill(slots_.begin(), slots_.end(), kEmpty);
    }
    mask_ = cap - 1;
    count_ = 0;
  }

  /// True when the key was not present yet.
  bool insert(std::uint32_t care, std::uint32_t value) {
    if ((count_ + 1) * kMaxLoadInverse > slots_.size()) grow();
    return insert_key(pack(care, value));
  }

  /// True when the key was present.
  bool erase(std::uint32_t care, std::uint32_t value) {
    const std::uint64_t key = pack(care, value);
    std::size_t hole = home(key);
    while (slots_[hole] != key) {
      if (slots_[hole] == kEmpty) return false;
      hole = (hole + 1) & mask_;
    }
    // Backward shift: a later key of the cluster moves into the hole iff
    // its home slot does not lie cyclically in (hole, j] — otherwise the
    // move would put it before its home, where probes never look.
    for (std::size_t j = (hole + 1) & mask_; slots_[j] != kEmpty;
         j = (j + 1) & mask_) {
      const std::size_t displaced = (j - home(slots_[j])) & mask_;
      if (displaced >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = kEmpty;
    --count_;
    return true;
  }

  [[nodiscard]] bool contains(std::uint32_t care, std::uint32_t value) const {
    const std::uint64_t key = pack(care, value);
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const std::uint64_t slot = slots_[i];
      if (slot == key) return true;
      if (slot == kEmpty) return false;
    }
  }

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// The slot a key's probe starts at, for tests that build clusters
  /// wrapping past the table end.
  [[nodiscard]] std::size_t home_slot(std::uint32_t care,
                                      std::uint32_t value) const {
    return home(pack(care, value));
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::size_t kMaxLoadInverse = 4;

  static std::uint64_t pack(std::uint32_t care, std::uint32_t value) {
    return (std::uint64_t{care} << 24) | value;
  }
  static std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  [[nodiscard]] std::size_t home(std::uint64_t key) const {
    return mix(key) & mask_;
  }
  bool insert_key(std::uint64_t key) {
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (slots_[i] == key) return false;
      if (slots_[i] == kEmpty) {
        slots_[i] = key;
        ++count_;
        return true;
      }
    }
  }
  void grow() {
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(old.size() * 2, kEmpty);
    mask_ = slots_.size() - 1;
    count_ = 0;
    for (const std::uint64_t key : old) {
      if (key != kEmpty) (void)insert_key(key);
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t mask_ = 0;
  std::size_t count_ = 0;
};

/// A cube of the sharp path's antichain; `value` has no bits outside
/// `care`.
struct SharpCube {
  std::uint32_t care;
  std::uint32_t value;
};

// Absorption index over the antichain, kept up to date across OFF
// points: a split parent leaves it and an accepted fragment enters it,
// so an OFF point costs work in its fragments, not in the antichain.
// A cube (c, v) absorbs a fragment (fc, fv) iff c ⊆ fc and
// v == fv & c (values never carry bits outside care), so the linear
// antichain sweep — quadratic in the prime count on 14+-var high-DC
// charts — becomes a keyed lookup: an absorber's care is *derivable*
// from the fragment's.  The probe enumerates every care submask at
// distance 0, 1 and 2 directly against the flat set, then covers the
// deeper tail by scanning the live care masks bucketed at popcount
// <= pc(fc) - 3, each resolved with one probe at (care, fv & care).  On
// the hardest corpus shape's charts the absorbed fragments split
// roughly 28% / 29% / 43% across distance 1, distance 2 and the tail,
// and the tail's hits come mostly from its lowest-popcount buckets.
// A live count per care mask, flat over the 2^n masks, keeps the
// buckets exact (a mask leaves its bucket with its last cube) and lets
// a submask probe skip the hash set when no cube has that care.
class AbsorbIndex {
 public:
  /// Indexes `cubes` (distinct, care masks within `full`); the live
  /// counts take 4 bytes per care mask, 2^n in all.
  AbsorbIndex(std::uint32_t full, const std::vector<SharpCube>& cubes)
      : live_(std::size_t{full} + 1, 0) {
    cubes_.reset(cubes.size() * 2);
    for (const SharpCube& c : cubes) insert(c);
  }

  void insert(const SharpCube& c) {
    if (!cubes_.insert(c.care, c.value)) return;
    if (live_[c.care]++ == 0) bucket(c.care).push_back(c.care);
  }

  void erase(const SharpCube& c) {
    if (!cubes_.erase(c.care, c.value)) return;
    if (--live_[c.care] == 0) {
      std::vector<std::uint32_t>& cares = bucket(c.care);
      *std::find(cares.begin(), cares.end(), c.care) = cares.back();
      cares.pop_back();
    }
  }

  [[nodiscard]] bool absorbs(const SharpCube& f) const {
    const auto probe = [&](std::uint32_t care, std::uint32_t value) {
      return live_[care] != 0 && cubes_.contains(care, value);
    };
    if (probe(f.care, f.value)) return true;
    for (std::uint32_t bits = f.care; bits != 0; bits &= bits - 1) {
      const std::uint32_t b1 = bits & (0u - bits);
      if (probe(f.care ^ b1, f.value & ~b1)) return true;
      for (std::uint32_t bits2 = bits & (bits - 1); bits2 != 0;
           bits2 &= bits2 - 1) {
        const std::uint32_t b2 = bits2 & (0u - bits2);
        if (probe(f.care ^ b1 ^ b2, f.value & ~(b1 | b2))) {
          return true;
        }
      }
    }
    const int top = std::popcount(f.care) - 3;
    for (int p = 0; p <= top; ++p) {
      for (const std::uint32_t care : cares_by_pc_[static_cast<std::size_t>(p)]) {
        if ((care & ~f.care) != 0) continue;
        if (cubes_.contains(care, f.value & care)) return true;
      }
    }
    return false;
  }

 private:
  std::vector<std::uint32_t>& bucket(std::uint32_t care) {
    return cares_by_pc_[static_cast<std::size_t>(std::popcount(care))];
  }

  FlatCubeSet cubes_;
  std::vector<std::uint32_t> live_;  ///< antichain cubes per care mask
  std::array<std::vector<std::uint32_t>, kMaxVars + 1> cares_by_pc_;
};

}  // namespace seance::logic::detail
