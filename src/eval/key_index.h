#ifndef INCDB_EVAL_KEY_INDEX_H_
#define INCDB_EVAL_KEY_INDEX_H_

/// \file key_index.h
/// \brief The executor's hash table: flat rows indexed on key columns,
/// shared by the hash join (eval/kernel.h), the semijoin/antijoin
/// (eval/exec.cpp) and the null-mask groups of UnifyIndex
/// (eval/unify_index.h).

#include <cstdint>
#include <vector>

#include "core/relation.h"
#include "core/row_index.h"
#include "core/tuple.h"

namespace incdb {

using Rows = std::vector<Relation::Row>;

/// True when some `keys` column of `row` holds a null.
inline bool NullAt(const Tuple& row, const std::vector<size_t>& keys) {
  for (size_t k : keys) {
    if (row[k].is_null()) return true;
  }
  return false;
}

/// \brief Rows indexed on key columns: a RowIndex over the distinct keys,
/// each key's rows chained through `next` in the order they were given.
///
/// Keys are hashed and compared in place (Tuple::ProjectedHash /
/// ProjectedEq), so building and probing copy no key tuple. Under SQL
/// semantics (`sql`) a key holding a null is neither indexed nor probed:
/// it compares u, never t. A null-aware ⋉/▷ asks for the same, and lists
/// those rows apart. Built eagerly; probes are pure reads, safe from any
/// number of threads. Must not outlive `rows` or `keys`.
class KeyIndex {
 public:
  /// Indexes all of `rows`, or only the ids listed in `*ids`.
  KeyIndex(const Rows& rows, const std::vector<size_t>& keys, bool sql,
           const std::vector<uint32_t>* ids = nullptr)
      : rows_(rows), keys_(keys), sql_(sql) {
    const size_t n = ids != nullptr ? ids->size() : rows.size();
    entries_.reserve(n);
    for (size_t j = 0; j < n; ++j) {
      const uint32_t i = ids != nullptr ? (*ids)[j] : static_cast<uint32_t>(j);
      size_t h = 0;
      if (KeyHash(rows[i].first, keys, sql, &h)) {
        entries_.push_back({i, RowIndex::kEmpty, h});
      }
    }
    // Prepending in reverse leaves every chain in the given order.
    index_.Reset(entries_.size());
    for (size_t k = entries_.size(); k-- > 0;) {
      Entry& e = entries_[k];
      const size_t pos = index_.Probe(e.hash, [&](uint32_t o) {
        return Matches(o, e.hash, rows_[e.row].first, keys_);
      });
      e.next = index_[pos];
      index_[pos] = static_cast<uint32_t>(k);
    }
  }

  /// First entry whose key equals the `probe_keys` columns of `probe`, or
  /// RowIndex::kEmpty. Next walks the rest of that key's entries; row maps
  /// an entry to its row id.
  uint32_t Find(const Tuple& probe,
                const std::vector<size_t>& probe_keys) const {
    size_t h = 0;
    if (!KeyHash(probe, probe_keys, sql_, &h)) return RowIndex::kEmpty;
    return index_.Find(
        h, [&](uint32_t o) { return Matches(o, h, probe, probe_keys); });
  }
  uint32_t Next(uint32_t entry) const { return entries_[entry].next; }
  uint32_t row(uint32_t entry) const { return entries_[entry].row; }

 private:
  struct Entry {
    uint32_t row;
    uint32_t next;  ///< next entry with the same key, or kEmpty
    size_t hash;
  };

  /// Hash of `row`'s `keys` columns into `*h`; false when SQL semantics
  /// skips the row because a key column is null.
  static bool KeyHash(const Tuple& row, const std::vector<size_t>& keys,
                      bool sql, size_t* h) {
    if (sql && NullAt(row, keys)) return false;
    *h = row.ProjectedHash(keys);
    return true;
  }

  bool Matches(uint32_t o, size_t h, const Tuple& t,
               const std::vector<size_t>& t_keys) const {
    const Entry& e = entries_[o];
    return e.hash == h && rows_[e.row].first.ProjectedEq(keys_, t, t_keys);
  }

  const Rows& rows_;
  const std::vector<size_t>& keys_;
  bool sql_;
  std::vector<Entry> entries_;
  RowIndex index_;
};

}  // namespace incdb

#endif  // INCDB_EVAL_KEY_INDEX_H_
