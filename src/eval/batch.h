#ifndef INCDB_EVAL_BATCH_H_
#define INCDB_EVAL_BATCH_H_

/// \file batch.h
/// \brief The one condition evaluator: a selection condition compiled into
/// a columnar program (MonetDB/X100 style).
///
/// Relations store flat rows (core/relation.h); the operator kernels
/// (eval/kernel.h) transpose the columns a program actually reads into
/// contiguous `Value` runs of at most EvalOptions::batch_size rows,
/// evaluate the program column-at-a-time into a selection vector, and
/// gather the surviving rows from the original row storage. Binary
/// operators pin one outer row's columns at stride 0 and sweep windows of
/// candidate partners. Every condition-bearing plan node carries its
/// program (PhysNode::prog, eval/plan.h), compiled once. Its atom truth
/// values are CondEqTV / CondOrderTV (algebra/condition.h) and the Kleene
/// connectives are branchless min/max over the f < u < t truth order
/// (logic/kleene.cpp).

#include <cstdint>
#include <vector>

#include "algebra/condition.h"
#include "core/relation.h"
#include "core/status.h"
#include "core/tuple.h"
#include "logic/truth.h"

namespace incdb {

/// \brief An owning, contiguous column of values.
class ColumnVector {
 public:
  void Clear() { vals_.clear(); }
  void Reserve(size_t n) { vals_.reserve(n); }
  void PushBack(const Value& v) { vals_.push_back(v); }
  const Value* data() const { return vals_.data(); }
  size_t size() const { return vals_.size(); }

 private:
  std::vector<Value> vals_;
};

/// \brief One column of a Batch: a borrowed pointer plus a stride.
///
/// stride 1 reads a contiguous run (the transposed case); stride 0
/// broadcasts a single value to every row — the binary operators pin the
/// current outer row's components this way while sweeping windows of
/// candidate partners (PartnerSelect, eval/kernel.h).
struct BatchColumn {
  const Value* data = nullptr;
  size_t stride = 1;
  const Value& At(size_t i) const { return data[i * stride]; }
};

/// \brief A horizontal slice of rows in columnar form.
///
/// `cols` is indexed by schema position; only the positions a predicate
/// references (BatchPredicate::referenced()) need to be populated. The
/// batch borrows its column storage (ColumnVector, broadcast scalars);
/// it must not outlive the data it points into.
struct Batch {
  size_t rows = 0;
  std::vector<BatchColumn> cols;

  void Reset(size_t arity, size_t n) {
    rows = n;
    cols.assign(arity, BatchColumn{});
  }
};

/// Selection vector: batch-relative indices of the selected rows,
/// in ascending order.
using SelVector = std::vector<uint32_t>;

/// Appends column `pos` of rows [begin, end) to `out` — the row-major →
/// column-major transposition adapter from Relation/RelationView flat rows.
inline void AppendColumn(const std::vector<Relation::Row>& rows, size_t begin,
                         size_t end, size_t pos, ColumnVector* out) {
  for (size_t i = begin; i < end; ++i) out->PushBack(rows[i].first[pos]);
}

/// \brief Reusable transposition scratch: turns a window of flat rows into
/// a Batch exposing the requested schema positions as contiguous columns.
class BatchGather {
 public:
  /// Points `out` at columns `positions` of rows [begin, end). Column
  /// storage is owned by this gatherer and reused across calls; `out` is
  /// valid until the next Gather.
  void Gather(const std::vector<Relation::Row>& rows, size_t begin, size_t end,
              const std::vector<size_t>& positions, size_t arity, Batch* out) {
    out->Reset(arity, end - begin);
    if (store_.size() < arity) store_.resize(arity);
    for (size_t p : positions) {
      ColumnVector& col = store_[p];
      col.Clear();
      col.Reserve(end - begin);
      AppendColumn(rows, begin, end, p, &col);
      out->cols[p] = BatchColumn{col.data(), 1};
    }
  }

 private:
  std::vector<ColumnVector> store_;
};

/// \brief A selection condition compiled into a flat columnar program.
///
/// The condition AST is flattened into a postorder instruction list over a
/// small stack of truth-value registers (one byte per row per register).
/// Atoms loop down a column calling CondEqTV / CondOrderTV; ∧/∨ combine
/// registers with branchless min/max
/// (Kleene's tables over the f < u < t order); ¬ folds into the ≠ atoms as
/// 2 − x. Evaluation is re-entrant: callers pass their own Scratch, so
/// pool workers can share one compiled program.
class BatchPredicate {
 public:
  /// Per-caller register storage, reused across batches.
  struct Scratch {
    std::vector<std::vector<uint8_t>> regs;
  };

  /// Compiles `c` against the input schema `attrs` for `mode`, resolving
  /// attribute names through ResolveCondAttr (NotFound on an unknown one).
  static StatusOr<BatchPredicate> Make(const CondPtr& c,
                                       const std::vector<std::string>& attrs,
                                       CondMode mode);

  /// Schema positions the program reads; callers populate exactly these
  /// columns of the Batch.
  const std::vector<size_t>& referenced() const { return referenced_; }

  /// Appends the (batch-relative, ascending) indices of the rows whose
  /// truth value is t to `*sel`.
  void SelectTrue(const Batch& b, Scratch* scratch, SelVector* sel) const;

  /// Writes the Kleene truth value of every row to out[0..b.rows) (the
  /// TV3 numeric encoding). Used by the tests and the microbenches.
  void EvalTruth(const Batch& b, Scratch* scratch, uint8_t* out) const;

  /// Structural well-formedness of the compiled program, checked by the
  /// plan verifier (eval/verify.h): postorder stack discipline (connectives
  /// combine the two topmost registers, atoms push the next), a register
  /// count that matches the deepest stack, in-range column operands for an
  /// input of `input_arity` columns (each also listed in referenced()),
  /// constant operands with no leftover parameter placeholders, and only
  /// opcodes the interpreter implements. Programs built by Make() always
  /// pass; a non-OK status means the program was corrupted.
  Status Validate(size_t input_arity) const;

  struct Insn {
    CondKind kind;
    uint32_t col = 0;   ///< lhs schema position (atoms)
    uint32_t col2 = 0;  ///< rhs schema position (attr-attr atoms)
    uint32_t dst = 0;   ///< destination register
    uint32_t src2 = 0;  ///< second source register (∧ / ∨; first is dst)
    Value constant;     ///< rhs constant (attr-const atoms)
  };

 private:
  /// Verifier negative tests corrupt the private program through this peer
  /// (tests/verify_test.cpp) to prove Validate() catches each defect class.
  friend struct BatchPredicateTestPeer;

  void Run(const Batch& b, Scratch* scratch) const;

  std::vector<Insn> prog_;
  uint32_t n_regs_ = 0;
  CondMode mode_ = CondMode::kNaive;
  std::vector<size_t> referenced_;
};

}  // namespace incdb

#endif  // INCDB_EVAL_BATCH_H_
