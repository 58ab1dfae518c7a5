#ifndef INCDB_EVAL_UNIFY_INDEX_H_
#define INCDB_EVAL_UNIFY_INDEX_H_

/// \file unify_index.h
/// \brief Null-mask index for unifiability probes, shared by the ⋉⇑
/// executor (eval/exec.cpp) and the FO evaluator's ⟦·⟧unif atom semantics
/// (logic/fo_eval.cpp).
///
/// Rows are grouped by their null-position mask; each group is a KeyIndex
/// on its constant positions. An all-constant probe tuple then touches
/// one key per group; probes containing nulls fall back to a scan.
/// Candidates are always re-verified with Unifiable() (repeated marked
/// nulls add constraints the index ignores). The index references the
/// indexed rows in place — it copies no tuples and must not outlive the
/// viewed relation. Built eagerly; probes are pure reads, safe from any
/// number of threads.

#include <cstdint>
#include <map>
#include <vector>

#include "core/key_index.h"
#include "core/relation.h"
#include "core/row_index.h"
#include "core/tuple.h"

namespace incdb {

class UnifyIndex {
 public:
  UnifyIndex(const Rows& rows, size_t arity, bool use_index)
      : rows_(rows), arity_(arity), use_index_(use_index && arity < 64) {
    if (!use_index_) return;
    std::map<uint64_t, std::vector<uint32_t>> by_mask;
    for (uint32_t i = 0; i < rows.size(); ++i) {
      uint64_t mask = 0;
      for (size_t p = 0; p < arity; ++p) {
        if (rows[i].first[p].is_null()) mask |= (1ULL << p);
      }
      by_mask[mask].push_back(i);
    }
    for (const auto& [mask, ids] : by_mask) {
      std::vector<size_t> cols;
      for (size_t p = 0; p < arity; ++p) {
        if (!(mask & (1ULL << p))) cols.push_back(p);
      }
      groups_.emplace_back(rows, std::move(cols), /*skip_nulls=*/false, &ids);
    }
  }

  /// True iff some indexed row unifies with `probe`.
  bool AnyUnifiable(const Tuple& probe) const {
    if (probe.arity() != arity_) return false;  // never unifies
    if (!use_index_ || probe.HasNull()) {
      for (const auto& [t, c] : rows_) {
        if (Unifiable(probe, t)) return true;
      }
      return false;
    }
    for (const KeyIndex& g : groups_) {
      for (uint32_t k = g.Find(probe, g.keys()); k != RowIndex::kEmpty;
           k = g.Next(k)) {
        if (Unifiable(probe, rows_[g.row(k)].first)) return true;
      }
    }
    return false;
  }

 private:
  const Rows& rows_;
  size_t arity_;
  bool use_index_;
  /// One group per null mask: its rows, keyed on the positions outside it.
  std::vector<KeyIndex> groups_;
};

}  // namespace incdb

#endif  // INCDB_EVAL_UNIFY_INDEX_H_
