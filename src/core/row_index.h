#ifndef INCDB_CORE_ROW_INDEX_H_
#define INCDB_CORE_ROW_INDEX_H_

/// \file row_index.h
/// \brief The one hash index over row ids: Relation's duplicate index and
/// the executor's key indexes (hash join, semijoin, IN, ⋉⇑ — see
/// eval/key_index.h) are built on it.
///
/// A power-of-two array of uint32_t slots at load ≤ ½ with linear
/// probing. A slot holds an entry id (a row id, or a position the owner
/// maps to rows) or kEmpty; the index stores no keys and no hashes, so
/// every lookup takes the probe key's hash plus an `eq(entry)` test the
/// owner supplies, and deletion takes `hash_of(entry)` to find where each
/// shifted entry belongs. Lookups are pure reads: any number of threads
/// may probe one index while nobody modifies it.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace incdb {

class RowIndex {
 public:
  static constexpr uint32_t kEmpty = ~static_cast<uint32_t>(0);

  /// Drops every entry and sizes the slot array for `n` entries.
  void Reset(size_t n) {
    size_t cap = 8;
    while (cap < 2 * n) cap *= 2;
    slots_.assign(cap, kEmpty);
    shift_ = 64;
    for (size_t c = cap; c > 1; c >>= 1) --shift_;
  }

  /// True when `n` entries fit without exceeding load ½.
  bool Fits(size_t n) const { return 2 * n <= slots_.size(); }

  /// Position of the entry e with eq(e) in the probe run of `hash`, else of
  /// the empty slot that ends the run — where such an entry belongs. The
  /// index must have been sized (Reset) for at least one more entry.
  template <typename Eq>
  size_t Probe(size_t hash, Eq&& eq) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(hash);; i = (i + 1) & mask) {
      const uint32_t e = slots_[i];
      if (e == kEmpty || eq(e)) return i;
    }
  }

  /// The entry e with eq(e) among those hashed to `hash`, or kEmpty.
  template <typename Eq>
  uint32_t Find(size_t hash, Eq&& eq) const {
    return slots_.empty() ? kEmpty : slots_[Probe(hash, eq)];
  }

  /// The slot at a position Probe returned.
  uint32_t& operator[](size_t pos) { return slots_[pos]; }

  /// Adds entry `e`, known to be absent, under `hash`.
  void Add(size_t hash, uint32_t e) {
    slots_[Probe(hash, [](uint32_t) { return false; })] = e;
  }

  /// Removes the entry at `pos` by backward-shift deletion: each later
  /// member of the probe run moves into the hole unless its home lies
  /// between the hole and its slot, so lookups never need tombstones.
  template <typename HashOf>
  void EraseAt(size_t pos, HashOf&& hash_of) {
    const size_t mask = slots_.size() - 1;
    size_t hole = pos;
    for (size_t j = (pos + 1) & mask; slots_[j] != kEmpty; j = (j + 1) & mask) {
      const size_t home = Home(hash_of(slots_[j]));
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = kEmpty;
  }

 private:
  /// Fibonacci hashing: the top bits of hash·2^64/φ, so a weak low-bit
  /// hash still spreads over the slots.
  size_t Home(size_t hash) const {
    return static_cast<size_t>((static_cast<uint64_t>(hash) *
                                0x9e3779b97f4a7c15ULL) >> shift_);
  }

  std::vector<uint32_t> slots_;
  unsigned shift_ = 64;  ///< 64 − log2(slot count)
};

}  // namespace incdb

#endif  // INCDB_CORE_ROW_INDEX_H_
