#ifndef INCDB_CORE_KEY_INDEX_H_
#define INCDB_CORE_KEY_INDEX_H_

/// \file key_index.h
/// \brief The engine's hash table on key columns, and the memo that keeps
/// the ones built over a stored relation state.
///
/// KeyIndex serves the hash join (eval/kernel.h), the semijoin/antijoin
/// (eval/exec.cpp) and the null-mask groups of UnifyIndex
/// (eval/unify_index.h). KeyIndexMemo holds the indexes built over one
/// immutable relation state of a Database (core/database.h): the first
/// query that needs an index on some key columns builds it, and every
/// later query over that state probes the same one.

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/fault.h"
#include "core/relation.h"
#include "core/row_index.h"
#include "core/status.h"
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
/// ProjectedEq), so building and probing copy no key tuple. With
/// `skip_nulls` a key holding a null is neither indexed nor probed: under
/// SQL it compares u, never t. The rows skipped that way are listed in
/// order (skipped()): a null-aware ⋉/▷ checks them apart. The index owns
/// its key positions and reads the rows in place, so it must not outlive
/// `rows`. Built eagerly; probes are pure reads, safe from any number of
/// threads.
class KeyIndex {
 public:
  /// Indexes all of `rows`, or only the ids listed in `*ids`.
  KeyIndex(const Rows& rows, std::vector<size_t> keys, bool skip_nulls,
           const std::vector<uint32_t>* ids = nullptr)
      : rows_(rows), keys_(std::move(keys)), skip_nulls_(skip_nulls) {
    const size_t n = ids != nullptr ? ids->size() : rows.size();
    entries_.reserve(n);
    for (size_t j = 0; j < n; ++j) {
      const uint32_t i = ids != nullptr ? (*ids)[j] : static_cast<uint32_t>(j);
      size_t h = 0;
      if (KeyHash(rows[i].first, keys_, &h)) {
        entries_.push_back({i, RowIndex::kEmpty, h});
      } else {
        skipped_.push_back(i);
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
    if (!KeyHash(probe, probe_keys, &h)) return RowIndex::kEmpty;
    return index_.Find(
        h, [&](uint32_t o) { return Matches(o, h, probe, probe_keys); });
  }
  uint32_t Next(uint32_t entry) const { return entries_[entry].next; }
  uint32_t row(uint32_t entry) const { return entries_[entry].row; }

  const std::vector<size_t>& keys() const { return keys_; }
  bool skips_nulls() const { return skip_nulls_; }
  /// Ids of the rows left out because a key column holds a null, in the
  /// given order; empty without `skip_nulls`.
  const std::vector<uint32_t>& skipped() const { return skipped_; }

 private:
  struct Entry {
    uint32_t row;
    uint32_t next;  ///< next entry with the same key, or kEmpty
    size_t hash;
  };

  /// Hash of `row`'s `keys` columns into `*h`; false when the row is
  /// skipped because a key column is null.
  bool KeyHash(const Tuple& row, const std::vector<size_t>& keys,
               size_t* h) const {
    if (skip_nulls_ && NullAt(row, keys)) return false;
    *h = row.ProjectedHash(keys);
    return true;
  }

  bool Matches(uint32_t o, size_t h, const Tuple& t,
               const std::vector<size_t>& t_keys) const {
    const Entry& e = entries_[o];
    return e.hash == h && rows_[e.row].first.ProjectedEq(keys_, t, t_keys);
  }

  const Rows& rows_;
  std::vector<size_t> keys_;
  bool skip_nulls_;
  std::vector<Entry> entries_;
  std::vector<uint32_t> skipped_;
  RowIndex index_;
};

/// \brief The key indexes of one stored relation state, each built once.
///
/// A Database entry owns one memo per relation state (core/database.h):
/// every snapshot of that state shares it, and a Put, Drop or Commit of
/// the relation gives the new state a fresh one, so an index never sees
/// rows change under it. Get builds an index at most once, under the
/// memo's lock; the index then lives as long as the state and is probed
/// read-only from any number of threads. Memoised indexes are not charged
/// to an ExecContext's soft memory limit.
class KeyIndexMemo {
 public:
  explicit KeyIndexMemo(const Relation& rel) : rel_(rel) {}
  KeyIndexMemo(const KeyIndexMemo&) = delete;
  KeyIndexMemo& operator=(const KeyIndexMemo&) = delete;

  /// The index of the relation's rows on `keys`, skipping null keys with
  /// `skip_nulls`. A failed build publishes nothing.
  StatusOr<const KeyIndex*> Get(const std::vector<size_t>& keys,
                                bool skip_nulls) {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& index : built_) {
      if (index->keys() == keys && index->skips_nulls() == skip_nulls) {
        return index.get();
      }
    }
    auto index = std::make_unique<const KeyIndex>(rel_.rows(), keys,
                                                   skip_nulls);
    INCDB_FAULT_POINT("exec.key_index");
    built_.push_back(std::move(index));
    return built_.back().get();
  }

 private:
  const Relation& rel_;
  std::mutex mu_;  ///< guards built_
  std::vector<std::unique_ptr<const KeyIndex>> built_;
};

}  // namespace incdb

#endif  // INCDB_CORE_KEY_INDEX_H_
