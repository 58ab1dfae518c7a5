#ifndef INCDB_EVAL_KERNEL_H_
#define INCDB_EVAL_KERNEL_H_

/// \file kernel.h
/// \brief The one implementation of σ, π∘σ, π, the join emit rule and the
/// partner selection every condition-bearing binary operator runs.
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
/// so the hot loops inline them. Conditions are evaluated only by the
/// node's columnar program (eval/batch.h): σ and π∘σ over windows of
/// their input, the binary operators through PartnerSelect, one outer row
/// broadcast against a window of candidate partners. Kernels own only
/// scratch: use one instance per thread. The hash join's KeyIndex is built
/// (or taken from a relation state's memo) by the caller and may be probed
/// from any number of threads.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/key_index.h"
#include "core/relation.h"
#include "core/row_index.h"
#include "core/status.h"
#include "core/tuple.h"
#include "eval/batch.h"
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

/// Window sizes of a sweep that may stop early: `first`, then 8× the last,
/// up to `window`. An EXISTS probe whose first partner comes early then
/// pays for a small window, not a whole batch (1 → 8 → 64 → …); so does a
/// cursor drained for a few rows (16 → 128 → …).
inline size_t GrowWindow(size_t w, size_t first, size_t window) {
  return std::min(window, w == 0 ? first : w * 8);
}

/// \brief The residual step of every binary operator that carries a
/// condition: which candidate partners make the node's program t together
/// with one outer row.
///
/// The program reads the joint (left·right) schema. The outer row's
/// columns broadcast at stride 0 and the candidates' referenced columns
/// are read from one of two places. Range reads a window of all of
/// `cands`, transposed once on first use: the keyless operators (NL join,
/// keyless ⋉/▷) and a null-aware ⋉/▷'s left rows whose key holds a null
/// sweep every candidate. Among gathers the rows of a list of ids: the
/// key-match chain of the hash join and of a keyed ⋉/▷, and a null-aware
/// ⋉/▷'s list of right rows whose key holds a null. The outer row is a
/// left row, except when a hash join builds on its left input and probes
/// with right rows (`outer_right`).
class PartnerSelect {
 public:
  PartnerSelect(const PhysNode& n, const Rows& cands, bool outer_right = false)
      : prog_(*n.prog), cands_(cands) {
    const size_t arity = n.left_arity + n.right->attrs.size();
    batch_.Reset(arity, 0);
    cols_.resize(arity);
    gathered_.resize(arity);
    for (size_t p : prog_.referenced()) {
      const size_t local = p < n.left_arity ? p : p - n.left_arity;
      ((p < n.left_arity) != outer_right ? outer_ : cand_)
          .push_back({p, local});
    }
  }

  /// Window-relative ids of the partners among cands[begin, end),
  /// ascending. Valid until the next call.
  const SelVector& Range(const Tuple& outer, size_t begin, size_t end) {
    for (const auto& [p, local] : cand_) {
      if (!transposed_) {
        cols_[p].Reserve(cands_.size());
        AppendColumn(cands_, 0, cands_.size(), local, &cols_[p]);
      }
      batch_.cols[p] = BatchColumn{cols_[p].data() + begin, 1};
    }
    transposed_ = true;
    return Select(outer, end - begin);
  }

  /// Positions i < n of the partners among the rows cands[ids[i]],
  /// ascending. Valid until the next call.
  const SelVector& Among(const Tuple& outer, const uint32_t* ids, size_t n) {
    for (const auto& [p, local] : cand_) {
      ColumnVector& col = gathered_[p];
      col.Clear();
      for (size_t i = 0; i < n; ++i) col.PushBack(cands_[ids[i]].first[local]);
      batch_.cols[p] = BatchColumn{col.data(), 1};
    }
    return Select(outer, n);
  }

  /// The next at most `w` row ids of the key-match chain at `*k`, which
  /// advances past them. Valid until the next call.
  const std::vector<uint32_t>& ChainWindow(const KeyIndex& index, uint32_t* k,
                                           size_t w) {
    ids_.clear();
    for (; *k != RowIndex::kEmpty && ids_.size() < w; *k = index.Next(*k)) {
      ids_.push_back(index.row(*k));
    }
    return ids_;
  }

  /// Offers each partner of `outer` among all of `cands`, by ascending id,
  /// to `stop(id)` until it returns true, in windows that GrowWindow up to
  /// `window`. Returns whether `stop` did.
  template <typename Stop>
  bool FindInRange(const Tuple& outer, size_t window, Stop&& stop) {
    for (size_t b = 0, w = 0; b < cands_.size(); b += w) {
      w = GrowWindow(w, kFirstWindow, window);
      const size_t e = std::min(cands_.size(), b + w);
      for (uint32_t s : Range(outer, b, e)) {
        if (stop(static_cast<uint32_t>(b + s))) return true;
      }
    }
    return false;
  }

  /// FindInRange over the key-match chain at entry `k` of `index`.
  template <typename Stop>
  bool FindInChain(const Tuple& outer, const KeyIndex& index, uint32_t k,
                   size_t window, Stop&& stop) {
    for (size_t w = 0; k != RowIndex::kEmpty;) {
      w = GrowWindow(w, kFirstWindow, window);
      const std::vector<uint32_t>& ids = ChainWindow(index, &k, w);
      for (uint32_t s : Among(outer, ids.data(), ids.size())) {
        if (stop(ids[s])) return true;
      }
    }
    return false;
  }

  /// FindInRange over the rows cands[ids[i]], in the order of `ids`.
  template <typename Stop>
  bool FindInList(const Tuple& outer, const std::vector<uint32_t>& ids,
                  size_t window, Stop&& stop) {
    for (size_t b = 0, w = 0; b < ids.size(); b += w) {
      w = GrowWindow(w, kFirstWindow, window);
      const size_t n = std::min(ids.size() - b, w);
      for (uint32_t s : Among(outer, ids.data() + b, n)) {
        if (stop(ids[b + s])) return true;
      }
    }
    return false;
  }

 private:
  /// An EXISTS sweep starts at one candidate: a key-match chain's first
  /// row is often the partner. With a 16-row first window, bench_micro's
  /// residual_eval antijoin took ~1.3× as long (median 0.108 vs 0.082 ms,
  /// Release, 4-vCPU VM).
  static constexpr size_t kFirstWindow = 1;

  /// A joint column the program reads: its joint position and its
  /// position in its own side's row.
  struct Col {
    size_t joint, local;
  };

  const SelVector& Select(const Tuple& outer, size_t rows) {
    for (const auto& [p, local] : outer_) {
      batch_.cols[p] = BatchColumn{&outer[local], 0};
    }
    batch_.rows = rows;
    sel_.clear();
    prog_.SelectTrue(batch_, &scratch_, &sel_);
    return sel_;
  }

  const BatchPredicate& prog_;
  const Rows& cands_;
  std::vector<Col> outer_, cand_;  ///< Read from the outer row / candidates.
  bool transposed_ = false;
  std::vector<ColumnVector> cols_;      ///< Range: every candidate.
  std::vector<ColumnVector> gathered_;  ///< Among: one window of ids.
  std::vector<uint32_t> ids_;
  Batch batch_;
  BatchPredicate::Scratch scratch_;
  SelVector sel_;
};

/// \brief The join emit rule every join path shares: a selected pair has
/// multiplicity lc·rc, or 1 under set semantics, and reaches the sink as
/// its joint tuple — projected through proj_pos when the join is fused.
class JoinEmit {
 public:
  JoinEmit(const PhysNode& n, bool set) : n_(n), set_(set) {}

  template <typename Sink>
  Status operator()(const Tuple& lt, uint64_t lc, const Tuple& rt,
                    uint64_t rc, Sink& sink) {
    uint64_t c = 1;
    if (!set_ && __builtin_mul_overflow(lc, rc, &c)) {
      return MultiplicityOverflow("join.emit", lc, rc);
    }
    joint_.AssignConcat(lt, rt);
    if (!n_.fused_proj) return sink(joint_, c);
    projected_.AssignProject(joint_, n_.proj_pos);
    return sink(projected_, c);
  }

 private:
  const PhysNode& n_;
  bool set_;
  Tuple joint_, projected_;
};

/// \brief Hash join on n.lkeys = n.rkeys: probes a KeyIndex over the
/// build side's rows that the caller builds (once, shared by every
/// kernel) and feeds every key match whose residual is t, in build order,
/// through the join emit rule.
class HashJoinKernel {
 public:
  HashJoinKernel(const PhysNode& n, bool set, bool build_left,
                 const Rows& build, const KeyIndex& index, size_t window)
      : build_(build),
        probe_keys_(build_left ? n.rkeys : n.lkeys),
        build_left_(build_left),
        residual_(n.cond->kind != CondKind::kTrue),
        window_(window),
        emit_(n, set),
        index_(index),
        partners_(n, build, /*outer_right=*/build_left) {}

  /// Joins probe[begin, end) with its key matches; `pre` runs before each
  /// window of probe rows and of matches.
  template <typename Pre, typename Sink>
  Status Run(const Rows& probe, size_t begin, size_t end, Pre&& pre,
             Sink&& sink) {
    for (size_t wb = begin; wb < end; wb += window_) {
      const size_t we = std::min(end, wb + window_);
      INCDB_RETURN_IF_ERROR(pre(we - wb));
      for (size_t i = wb; i < we; ++i) {
        const auto& [pt, pc] = probe[i];
        INCDB_RETURN_IF_ERROR(Probe(pt, pc, pre, sink));
      }
    }
    return Status::OK();
  }

  /// Joins one probe row (pt, pc) with its key matches; `pre` runs before
  /// each window of matches. A residual selects among windows of the
  /// key-match chain.
  template <typename Pre, typename Sink>
  Status Probe(const Tuple& pt, uint64_t pc, Pre&& pre, Sink&& sink) {
    uint32_t k = index_.Find(pt, probe_keys_);
    if (!residual_) {
      for (; k != RowIndex::kEmpty; k = index_.Next(k)) {
        INCDB_RETURN_IF_ERROR(pre(1));
        INCDB_RETURN_IF_ERROR(Emit(pt, pc, index_.row(k), sink));
      }
      return Status::OK();
    }
    while (k != RowIndex::kEmpty) {
      const std::vector<uint32_t>& ids = partners_.ChainWindow(index_, &k,
                                                               window_);
      INCDB_RETURN_IF_ERROR(pre(ids.size()));
      for (uint32_t s : partners_.Among(pt, ids.data(), ids.size())) {
        INCDB_RETURN_IF_ERROR(Emit(pt, pc, ids[s], sink));
      }
    }
    return Status::OK();
  }

 private:
  template <typename Sink>
  Status Emit(const Tuple& pt, uint64_t pc, uint32_t b, Sink& sink) {
    const auto& [bt, bc] = build_[b];
    return build_left_ ? emit_(bt, bc, pt, pc, sink)
                       : emit_(pt, pc, bt, bc, sink);
  }

  const Rows& build_;
  const std::vector<size_t>& probe_keys_;
  bool build_left_;
  bool residual_;
  size_t window_;
  JoinEmit emit_;
  const KeyIndex& index_;
  PartnerSelect partners_;
};

/// \brief Nested-loop join against a fixed right side: per left row, the
/// partners among each window of right rows go through the join emit rule.
class NLJoinKernel {
 public:
  NLJoinKernel(const PhysNode& n, bool set, const Rows& rrows)
      : rrows_(rrows), emit_(n, set), partners_(n, rrows) {}

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
        for (uint32_t si : partners_.Range(lt, begin, end)) {
          const auto& [rt, rc] = rrows_[begin + si];
          INCDB_RETURN_IF_ERROR(emit_(lt, lc, rt, rc, sink));
        }
      }
    }
    return Status::OK();
  }

 private:
  const Rows& rrows_;
  JoinEmit emit_;
  PartnerSelect partners_;
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
  return HashJoinKernel(n, set, build_left, build, index, window)
      .Run(probe, 0, probe.size(), pre, sink);
}

}  // namespace incdb

#endif  // INCDB_EVAL_KERNEL_H_
