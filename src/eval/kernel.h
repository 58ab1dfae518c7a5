#ifndef INCDB_EVAL_KERNEL_H_
#define INCDB_EVAL_KERNEL_H_

/// \file kernel.h
/// \brief The one implementation of σ, π∘σ, π and the join emit rule.
///
/// Span→sink kernels over flat Relation rows. Each takes a range of input
/// rows and the operator's PhysNode (its compiled program, projection and
/// key columns), and hands every output row to a sink
/// `Status(const Tuple&, uint64_t count)` that decides how the row lands:
/// Relation::Insert / InsertUnique in the executor (eval/exec.cpp) and the
/// delta propagator (eval/delta.cpp), a chunk's part when the executor
/// runs chunks on its pool, the refill buffer of the streaming cursor
/// (api/session.cpp). The loops that sweep windows take a hook
/// `Status(size_t units)` run before each window — the executor's
/// deadline/cancel checkpoint. Sinks and hooks are template parameters,
/// so the hot loops inline them. Kernels own only scratch: use one
/// instance per thread. The hash join's KeyIndex is built by the caller
/// and may be probed from any number of threads.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/relation.h"
#include "core/row_index.h"
#include "core/status.h"
#include "core/tuple.h"
#include "eval/batch.h"
#include "eval/key_index.h"
#include "eval/plan.h"

namespace incdb {

/// Window hook for callers that observe no deadline.
struct NoCheck {
  Status operator()(size_t) const { return Status::OK(); }
};

/// \brief σ (kFilterSel), π∘σ (kFusedProjectFilter) and π (kProject)
/// over row windows.
///
/// The program reads only the columns it references, SelectTrue keeps the
/// rows whose condition is t (π keeps every row), and each survivor
/// reaches the sink with its multiplicity unchanged — projected through
/// proj_pos unless the operator is a plain σ.
class WindowKernel {
 public:
  /// One window: rows[begin, end).
  template <typename Sink>
  Status Run(const PhysNode& n, const Rows& rows, size_t begin, size_t end,
             Sink&& sink) {
    if (n.op == PhysOp::kProject) {
      for (size_t i = begin; i < end; ++i) {
        INCDB_RETURN_IF_ERROR(Emit(n, rows[i], sink));
      }
      return Status::OK();
    }
    for (uint32_t i : Select(n, rows, begin, end)) {
      INCDB_RETURN_IF_ERROR(Emit(n, rows[begin + i], sink));
    }
    return Status::OK();
  }

  /// All of `rows`, in windows of `window` rows. Every window is selected
  /// before any row is emitted, so `size` runs once with the number of
  /// rows kept — the caller sizes its output by what survives, not by the
  /// input. `pre` runs before each window of input and of kept rows.
  template <typename Pre, typename Size, typename Sink>
  Status Sweep(const PhysNode& n, const Rows& rows, size_t window, Pre&& pre,
               Size&& size, Sink&& sink) {
    const bool all = n.op == PhysOp::kProject;
    keep_.clear();
    for (size_t begin = 0; !all && begin < rows.size(); begin += window) {
      const size_t end = std::min(rows.size(), begin + window);
      INCDB_RETURN_IF_ERROR(pre(end - begin));
      for (uint32_t i : Select(n, rows, begin, end)) {
        keep_.push_back(static_cast<uint32_t>(begin + i));
      }
    }
    const size_t kept = all ? rows.size() : keep_.size();
    size(kept);
    for (size_t begin = 0; begin < kept; begin += window) {
      const size_t end = std::min(kept, begin + window);
      INCDB_RETURN_IF_ERROR(pre(end - begin));
      for (size_t k = begin; k < end; ++k) {
        INCDB_RETURN_IF_ERROR(Emit(n, rows[all ? k : keep_[k]], sink));
      }
    }
    return Status::OK();
  }

 private:
  /// Window-relative ids of the rows of rows[begin, end) whose condition
  /// is t, ascending. Valid until the next call.
  const SelVector& Select(const PhysNode& n, const Rows& rows, size_t begin,
                          size_t end) {
    gather_.Gather(rows, begin, end, n.prog->referenced(),
                   n.left->attrs.size(), &batch_);
    sel_.clear();
    n.prog->SelectTrue(batch_, &scratch_, &sel_);
    return sel_;
  }

  template <typename Sink>
  Status Emit(const PhysNode& n, const Relation::Row& row, Sink& sink) {
    if (n.op == PhysOp::kFilterSel) return sink(row.first, row.second);
    projected_.AssignProject(row.first, n.proj_pos);
    return sink(projected_, row.second);
  }

  BatchGather gather_;
  Batch batch_;
  BatchPredicate::Scratch scratch_;
  SelVector sel_;
  std::vector<uint32_t> keep_;
  Tuple projected_;
};

/// \brief The join emit rule every join path shares.
///
/// A hash-join pair whose residual is not t is dropped (the NL join's
/// program has already selected its pairs); a kept pair has multiplicity
/// lc·rc, or 1 under set semantics, and reaches the sink as its joint
/// tuple — projected through proj_pos when the join is fused.
class JoinEmit {
 public:
  JoinEmit(const PhysNode& n, bool set)
      : n_(n),
        set_(set),
        test_residual_(n.op == PhysOp::kHashJoin &&
                       n.cond->kind != CondKind::kTrue) {}

  template <typename Sink>
  Status operator()(const Tuple& lt, uint64_t lc, const Tuple& rt,
                    uint64_t rc, Sink& sink) {
    joint_.AssignConcat(lt, rt);
    if (test_residual_ && n_.pred(joint_) != TV3::kT) return Status::OK();
    uint64_t c = 1;
    if (!set_ && __builtin_mul_overflow(lc, rc, &c)) {
      return MultiplicityOverflow("join.emit", lc, rc);
    }
    if (!n_.fused_proj) return sink(joint_, c);
    projected_.AssignProject(joint_, n_.proj_pos);
    return sink(projected_, c);
  }

 private:
  const PhysNode& n_;
  bool set_;
  bool test_residual_;
  Tuple joint_, projected_;
};

/// \brief Hash join on n.lkeys = n.rkeys: probes a KeyIndex over the
/// build side's rows that the caller builds (once, shared by every
/// kernel) and feeds every key match, in build order, through the join
/// emit rule.
class HashJoinKernel {
 public:
  HashJoinKernel(const PhysNode& n, bool set, bool build_left,
                 const Rows& build, const KeyIndex& index)
      : build_(build),
        probe_keys_(build_left ? n.rkeys : n.lkeys),
        build_left_(build_left),
        emit_(n, set),
        index_(index) {}

  /// Joins probe[begin, end) with its key matches; `pre` runs before each
  /// window of `window` probe rows and once per match.
  template <typename Pre, typename Sink>
  Status Run(const Rows& probe, size_t begin, size_t end, size_t window,
             Pre&& pre, Sink&& sink) {
    for (size_t wb = begin; wb < end; wb += window) {
      const size_t we = std::min(end, wb + window);
      INCDB_RETURN_IF_ERROR(pre(we - wb));
      for (size_t i = wb; i < we; ++i) {
        const auto& [pt, pc] = probe[i];
        INCDB_RETURN_IF_ERROR(Probe(pt, pc, pre, sink));
      }
    }
    return Status::OK();
  }

  /// Joins one probe row (pt, pc) with its key matches; `pre` runs once
  /// per match.
  template <typename Pre, typename Sink>
  Status Probe(const Tuple& pt, uint64_t pc, Pre&& pre, Sink&& sink) {
    for (uint32_t k = index_.Find(pt, probe_keys_); k != RowIndex::kEmpty;
         k = index_.Next(k)) {
      INCDB_RETURN_IF_ERROR(pre(1));
      const auto& [bt, bc] = build_[index_.row(k)];
      INCDB_RETURN_IF_ERROR(build_left_ ? emit_(bt, bc, pt, pc, sink)
                                        : emit_(pt, pc, bt, bc, sink));
    }
    return Status::OK();
  }

 private:
  const Rows& build_;
  const std::vector<size_t>& probe_keys_;
  bool build_left_;
  JoinEmit emit_;
  const KeyIndex& index_;
};

/// \brief Nested-loop join against a fixed right side.
///
/// The program's right-side columns are transposed once at construction;
/// per left row the left components broadcast (stride 0) while the
/// program sweeps windows of right rows, and each selected pair goes
/// through the join emit rule.
class NLJoinKernel {
 public:
  NLJoinKernel(const PhysNode& n, bool set, const Rows& rrows)
      : n_(n), rrows_(rrows), emit_(n, set) {
    const size_t joint_arity = n.left_arity + n.right->attrs.size();
    batch_.Reset(joint_arity, 0);
    rcols_.resize(joint_arity);
    for (size_t p : n.prog->referenced()) {
      if (p < n.left_arity) continue;
      rcols_[p].Reserve(rrows.size());
      AppendColumn(rrows, 0, rrows.size(), p - n.left_arity, &rcols_[p]);
    }
  }

  /// Joins lrows[lbegin, lend) with every right row; `pre` runs before
  /// each window of right rows.
  template <typename Pre, typename Sink>
  Status Run(const Rows& lrows, size_t lbegin, size_t lend, size_t window,
             Pre&& pre, Sink&& sink) {
    for (size_t li = lbegin; li < lend; ++li) {
      const auto& [lt, lc] = lrows[li];
      for (size_t begin = 0; begin < rrows_.size(); begin += window) {
        const size_t end = std::min(rrows_.size(), begin + window);
        INCDB_RETURN_IF_ERROR(pre(end - begin));
        batch_.rows = end - begin;
        for (size_t p : n_.prog->referenced()) {
          batch_.cols[p] = p < n_.left_arity
                               ? BatchColumn{&lt[p], 0}
                               : BatchColumn{rcols_[p].data() + begin, 1};
        }
        sel_.clear();
        n_.prog->SelectTrue(batch_, &scratch_, &sel_);
        for (uint32_t si : sel_) {
          const auto& [rt, rc] = rrows_[begin + si];
          INCDB_RETURN_IF_ERROR(emit_(lt, lc, rt, rc, sink));
        }
      }
    }
    return Status::OK();
  }

 private:
  const PhysNode& n_;
  const Rows& rrows_;
  JoinEmit emit_;
  std::vector<ColumnVector> rcols_;
  Batch batch_;
  BatchPredicate::Scratch scratch_;
  SelVector sel_;
};

/// lrows ⋈ rrows on one thread, for either join operator. The hash join
/// indexes the smaller side and probes the other in windows of `window`
/// rows; `pre` runs before each window and each match.
template <typename Pre, typename Sink>
Status JoinRows(const PhysNode& n, bool set, bool sql, const Rows& lrows,
                const Rows& rrows, size_t window, Pre&& pre, Sink&& sink) {
  if (n.op == PhysOp::kNLJoin) {
    return NLJoinKernel(n, set, rrows)
        .Run(lrows, 0, lrows.size(), window, pre, sink);
  }
  const bool build_left = lrows.size() <= rrows.size();
  const Rows& build = build_left ? lrows : rrows;
  const Rows& probe = build_left ? rrows : lrows;
  const KeyIndex index(build, build_left ? n.lkeys : n.rkeys, sql);
  return HashJoinKernel(n, set, build_left, build, index)
      .Run(probe, 0, probe.size(), window, pre, sink);
}

}  // namespace incdb

#endif  // INCDB_EVAL_KERNEL_H_
