#ifndef INCDB_CORE_RELATION_H_
#define INCDB_CORE_RELATION_H_

/// \file relation.h
/// \brief Named-schema relations under set and bag semantics.
///
/// A Relation stores tuples with multiplicities (a bag). Set semantics, used
/// by most of the paper, is the multiplicity-≤1 restriction; bag semantics
/// (§4.2 "Bag semantics", [20,22]) uses the full counts. Operations that are
/// semantics-sensitive (union, difference, projection...) live in the
/// evaluators (src/eval); Relation itself only manages storage.
///
/// Storage is a flat row vector (tuple, multiplicity) in first-insertion
/// order, plus an open-addressing index over row ids (core/row_index.h)
/// probed by each tuple's cached hash. The index is maintained eagerly by
/// every mutation, so Count/Contains are pure reads that any number of
/// threads may run on a shared relation. Copying a relation copies the
/// rows and one flat slot array. Evaluators iterate the flat rows directly
/// and build their own row-id indices instead of copying tuples; iteration
/// order is deterministic (insertion order) independently of hashing.
///
/// Multiplicities are checked: a count that would pass 2^64 − 1 is
/// kResourceExhausted (MultiplicityOverflow), never a wrapped count.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/row_index.h"
#include "core/status.h"
#include "core/tuple.h"

namespace incdb {

/// \brief A finite relation over Const ∪ Null with named attributes.
///
/// Multiplicities are explicit: #(ā, R) in the paper is `Count(ā)` here.
/// Iteration helpers return deterministic (sorted) orders so tests and
/// benchmark output are reproducible.
class Relation {
 public:
  /// One distinct tuple with its multiplicity.
  using Row = std::pair<Tuple, uint64_t>;

  Relation() = default;
  explicit Relation(std::vector<std::string> attrs)
      : attrs_(std::move(attrs)) {}

  const std::vector<std::string>& attrs() const { return attrs_; }
  size_t arity() const { return attrs_.size(); }

  /// Index of an attribute name, or error if absent/ambiguous input.
  StatusOr<size_t> AttrIndex(const std::string& name) const;

  /// Adds `count` occurrences of `t`. Arity must match; a multiplicity
  /// that would pass 2^64 − 1 is kResourceExhausted and leaves `t`'s count
  /// unchanged.
  Status Insert(const Tuple& t, uint64_t count = 1);
  Status Insert(Tuple&& t, uint64_t count = 1);
  /// Insert for tuples the caller *guarantees* are not yet present (e.g.
  /// join outputs, whose rows are pairs of distinct rows, or the rows kept
  /// from a relation's distinct rows): skips the duplicate probe and appends
  /// directly. Inserting a duplicate through this corrupts the
  /// multiplicity accounting; debug builds assert.
  Status InsertUnique(const Tuple& t, uint64_t count = 1);
  Status InsertUnique(Tuple&& t, uint64_t count = 1);
  /// Convenience for tests: aborts on arity mismatch.
  void Add(std::initializer_list<Value> values, uint64_t count = 1);

  /// Removes `count` occurrences of `t` (the inverse of Insert, backing
  /// row-level delta application). Errors on arity mismatch, on an absent
  /// tuple, and when `count` exceeds the stored multiplicity — callers
  /// applying a delta treat any error as "fall back to recomputation".
  /// Removing the *last* occurrence compacts the row storage by moving the
  /// final row into the vacated slot, so unlike Insert, Erase does NOT
  /// preserve row order or row indices. Its index entry leaves by
  /// backward-shift deletion (no tombstones), so a relation under a long
  /// insert/erase churn probes as fast as a freshly built one.
  Status Erase(const Tuple& t, uint64_t count = 1);

  /// Pre-sizes the row storage and the index for `n` distinct tuples, so
  /// the first `n` inserts neither reallocate nor rehash. Reserving more
  /// than is inserted costs ~40 bytes of rows plus 8–16 of index per
  /// unused tuple: size it by what will be kept, not by an upper bound.
  void Reserve(size_t n);

  /// Multiplicity #(ā, R); 0 if absent.
  uint64_t Count(const Tuple& t) const;
  bool Contains(const Tuple& t) const { return FindRow(t) != kNoRow; }

  /// Number of distinct tuples.
  size_t DistinctSize() const { return rows_.size(); }
  /// Total multiplicity (bag cardinality), saturating at 2^64 − 1 so a
  /// budget compared against it trips instead of reading a wrapped sum.
  uint64_t TotalSize() const;
  bool Empty() const { return rows_.empty(); }

  /// Collapses every multiplicity to 1 (the set underlying the bag).
  Relation ToSet() const;
  /// In-place ToSet: collapses every multiplicity of `this` to 1.
  void CollapseCounts() {
    for (Row& row : rows_) row.second = 1;
    multi_ = 0;
  }
  /// True iff every multiplicity is 1. O(1): the mutators count the rows
  /// whose multiplicity is above 1.
  bool IsSet() const { return multi_ == 0; }

  /// Replaces the attribute names without touching row storage (the
  /// zero-copy backing of the rename operator). Arity must match.
  Status RenameAttrs(std::vector<std::string> attrs);

  /// Distinct tuples in deterministic (sorted) order.
  std::vector<Tuple> SortedTuples() const;
  /// (tuple, multiplicity) pairs in deterministic order.
  std::vector<std::pair<Tuple, uint64_t>> SortedRows() const;

  /// Flat row access for evaluators: distinct tuples with multiplicities,
  /// in first-insertion order. Row *indices* are stable under further
  /// Insert calls (Insert never removes or reorders rows; Erase of a last
  /// occurrence swaps the final row into the vacated slot), but references
  /// and pointers into the vector are invalidated by Insert like any
  /// std::vector growth — only hold them across code that does not mutate
  /// this relation.
  const std::vector<Row>& rows() const { return rows_; }

  /// Set-equality (ignores attribute names, compares tuple bags).
  bool SameRows(const Relation& other) const;

  /// Row-for-row identity: same attribute names and the same rows with the
  /// same multiplicities in the same insertion order. Stronger than
  /// SameRows — this is what every operator promises at any num_threads
  /// against its sequential path.
  bool IdenticalTo(const Relation& other) const {
    return attrs_ == other.attrs_ && rows_ == other.rows_;
  }

  /// All tuples of `this` form a subset (with multiplicities) of `other`.
  bool SubBagOf(const Relation& other) const;

  /// Pretty table rendering for examples and benchmark reports.
  std::string ToString() const;

 private:
  static constexpr uint32_t kNoRow = RowIndex::kEmpty;

  /// Row index of `t`, or kNoRow.
  uint32_t FindRow(const Tuple& t) const {
    return index_.Find(t.Hash(),
                       [&](uint32_t r) { return rows_[r].first == t; });
  }
  /// Insert (probe = true) and InsertUnique (probe = false).
  template <typename T>
  Status InsertRow(T&& t, uint64_t count, bool probe);
  /// Re-sizes the index for `n` rows and re-adds every row.
  void Rehash(size_t n);

  std::vector<std::string> attrs_;
  std::vector<Row> rows_;
  /// Row ids keyed by their tuples' cached hashes.
  RowIndex index_;
  /// Rows whose multiplicity is above 1.
  size_t multi_ = 0;
};

/// kResourceExhausted for a bag multiplicity `a ⊕ b` (a sum or product,
/// computed at `site`) that would pass 2^64 − 1. The detail carries the
/// site, `a` as budget_used and 2^64 − 1 as budget_limit.
Status MultiplicityOverflow(const char* site, uint64_t a, uint64_t b);

/// Position of `name` in the schema `attrs`, or `attrs.size()` when absent.
/// The shared attribute lookup used by the plan compiler, the executors and
/// condition resolution (schemas are short, so a linear scan beats hashing).
size_t IndexOf(const std::vector<std::string>& attrs, const std::string& name);

class KeyIndexMemo;

/// \brief A read-only, possibly borrowed view of a Relation.
///
/// Physical operators exchange RelationViews: leaf scans *borrow* the
/// database's relation in place (no row is copied), while operators that
/// materialise output *own* their result through a shared pointer, which
/// makes views cheap to pass around and to memoise for plan DAGs. A
/// borrowed view must not outlive the relation it points into. Renaming
/// wraps the same rows with replacement attribute names, so renames of
/// borrowed scans stay copy-free too. A view of a stored relation state
/// carries that state's key-index memo (core/key_index.h), so an operator
/// that indexes it reuses the indexes earlier queries built.
class RelationView {
 public:
  RelationView() = default;

  /// Borrows `rel` in place; the caller guarantees it outlives the view.
  /// `indexes` is the memo of the stored state `rel` is, if it is one.
  static RelationView Borrow(const Relation& rel,
                             KeyIndexMemo* indexes = nullptr) {
    RelationView v;
    v.rel_ = &rel;
    v.indexes_ = indexes;
    return v;
  }
  /// Takes ownership of a materialised relation.
  static RelationView Own(Relation&& rel) {
    RelationView v;
    v.owned_ = std::make_shared<Relation>(std::move(rel));
    v.rel_ = v.owned_.get();
    return v;
  }

  bool valid() const { return rel_ != nullptr; }
  bool borrowed() const { return rel_ != nullptr && owned_ == nullptr; }

  const std::vector<std::string>& attrs() const {
    return renamed_ ? *renamed_ : rel_->attrs();
  }
  size_t arity() const { return rel_->arity(); }
  const std::vector<Relation::Row>& rows() const { return rel_->rows(); }
  bool Empty() const { return rel_->Empty(); }
  uint64_t TotalSize() const { return rel_->TotalSize(); }
  bool Contains(const Tuple& t) const { return rel_->Contains(t); }
  uint64_t Count(const Tuple& t) const { return rel_->Count(t); }
  /// The viewed relation. Its attrs() are the *original* names; a renamed
  /// view reports the replacement names via RelationView::attrs().
  const Relation& rel() const { return *rel_; }
  /// The key-index memo of the stored state this view borrows, or null.
  KeyIndexMemo* indexes() const { return indexes_; }

  /// The same rows under replacement attribute names (arity must match).
  RelationView Renamed(std::vector<std::string> attrs) const {
    RelationView v = *this;
    v.renamed_ = std::move(attrs);
    return v;
  }

  /// Converts the view into a standalone Relation carrying attrs(): moves
  /// when this view is the sole owner, copies rows when borrowed/shared.
  Relation Materialize() &&;

 private:
  std::shared_ptr<Relation> owned_;   ///< null when borrowed
  const Relation* rel_ = nullptr;     ///< always the row provider
  KeyIndexMemo* indexes_ = nullptr;   ///< Borrow of a stored state only
  std::optional<std::vector<std::string>> renamed_;
};

/// Builds default attribute names a0..a{k-1}.
std::vector<std::string> DefaultAttrs(size_t arity, const std::string& prefix = "a");

}  // namespace incdb

#endif  // INCDB_CORE_RELATION_H_
