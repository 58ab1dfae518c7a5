// Delta propagation through the maintainable plan subset (see delta.h).
//
// σ, π∘σ, π and both joins run the executor's own kernels
// (eval/kernel.h) over the delta rows, so the keep-t rule, the join emit
// rule and the SQL null-key skip exist once; this file adds only the
// delta rules around them (which side joins which boundary value, and the
// set-semantics collapses). Maintained results must be bag-identical to
// cold recomputation — the differential fuzzer crosses the two paths.

#include "eval/delta.h"

#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "eval/kernel.h"
#include "eval/verify.h"

namespace incdb {

namespace {

class DeltaPropagator {
 public:
  DeltaPropagator(const PlanPtr& plan, const CommitInfo& info)
      : plan_(plan),
        info_(info),
        pre_scans_(info.pre),
        post_scans_(info.post) {}

  StatusOr<RelationDelta> Run() { return Delta(plan_->root); }

 private:
  bool set() const { return plan_->mode != EvalMode::kBagNaive; }
  bool sql() const { return plan_->mode == EvalMode::kSetSql; }

  /// True when the subtree scans a relation the commit touched. Untouched
  /// subtrees have empty deltas and identical old/new values.
  bool Affected(const PhysPtr& n) {
    auto it = affected_.find(n.get());
    if (it != affected_.end()) return it->second;
    bool a = n->op == PhysOp::kScanView && info_.deltas.count(n->rel_name) > 0;
    if (n->left) a = Affected(n->left) || a;
    if (n->right) a = Affected(n->right) || a;
    affected_[n.get()] = a;
    return a;
  }

  /// The node's value at the commit boundary (pre or post side), evaluated
  /// lazily and memoised. Scans borrow straight from the pinned snapshots
  /// (set-collapsed like the executor's scan resolution); inner nodes
  /// re-execute the subtree against the matching snapshot.
  StatusOr<const RelationView*> ValueOf(const PhysPtr& n, bool post) {
    if (!Affected(n)) post = false;  // old == new: share one value
    const auto key = std::make_pair(static_cast<const void*>(n.get()), post);
    auto it = values_.find(key);
    if (it != values_.end()) return &it->second;
    RelationView v;
    if (n->op == PhysOp::kScanView) {
      auto r = (post ? post_scans_ : pre_scans_).Resolve(n->rel_name, set());
      if (!r.ok()) return r.status();
      v = std::move(*r);
    } else {
      auto r = ExecuteNode(plan_, n, post ? info_.post : info_.pre);
      if (!r.ok()) return r.status();
      v = RelationView::Own(std::move(*r));
    }
    return &values_.emplace(key, std::move(v)).first->second;
  }

  StatusOr<RelationDelta> Delta(const PhysPtr& n) {
    auto rc = plan_->refcount.find(n.get());
    const bool shared = rc != plan_->refcount.end() && rc->second > 1;
    if (shared) {
      auto it = memo_.find(n.get());
      if (it != memo_.end()) return it->second;
    }
    auto out = DeltaNode(n);
    if (out.ok() && shared) memo_.emplace(n.get(), *out);
    return out;
  }

  StatusOr<RelationDelta> DeltaNode(const PhysPtr& np) {
    const PhysNode& n = *np;
    if (!Affected(np)) {
      return RelationDelta{Relation(n.attrs), Relation(n.attrs)};
    }
    switch (n.op) {
      case PhysOp::kScanView:
        return ScanDelta(n);
      case PhysOp::kFilterSel:
      case PhysOp::kFusedProjectFilter:
      case PhysOp::kProject:
        return FilterDelta(n);
      case PhysOp::kRename: {
        auto child = Delta(n.left);
        if (!child.ok()) return child;
        RelationDelta out = std::move(*child);
        INCDB_RETURN_IF_ERROR(out.plus.RenameAttrs(n.attrs));
        INCDB_RETURN_IF_ERROR(out.minus.RenameAttrs(n.attrs));
        return out;
      }
      case PhysOp::kUnion:
        return UnionDelta(n);
      case PhysOp::kHashJoin:
      case PhysOp::kNLJoin:
        return JoinDelta(n);
      default:
        return Status::FailedPrecondition(
            std::string("operator is not delta-maintainable: ") +
            ToString(n.op));
    }
  }

  StatusOr<RelationDelta> ScanDelta(const PhysNode& n) {
    RelationDelta out{Relation(n.attrs), Relation(n.attrs)};
    auto it = info_.deltas.find(n.rel_name);
    if (it == info_.deltas.end()) return out;  // untouched relation
    if (!it->second.has_value()) {
      return Status::FailedPrecondition(
          "relation " + n.rel_name + " changed without a row-level delta");
    }
    const RelationDelta& d = *it->second;
    if (!set()) {
      for (const auto& [t, c] : d.plus.rows()) {
        INCDB_RETURN_IF_ERROR(out.plus.Insert(t, c));
      }
      for (const auto& [t, c] : d.minus.rows()) {
        INCDB_RETURN_IF_ERROR(out.minus.Insert(t, c));
      }
      return out;
    }
    // Set semantics: the scan collapses multiplicities, so only 0→>0 and
    // >0→0 transitions matter. Deletions break the monotone insert-only
    // argument — abort and let the caller invalidate.
    const Relation* prer = info_.pre.Find(n.rel_name);
    const Relation* postr = info_.post.Find(n.rel_name);
    if (prer == nullptr || postr == nullptr) {
      return Status::FailedPrecondition(
          "relation " + n.rel_name + " missing at the commit boundary");
    }
    for (const auto& [t, c] : d.minus.rows()) {
      if (postr->Count(t) == 0) {
        return Status::FailedPrecondition(
            "set-level deletion from " + n.rel_name +
            " is not insert-only maintainable");
      }
    }
    for (const auto& [t, c] : d.plus.rows()) {
      if (prer->Count(t) == 0) {
        INCDB_RETURN_IF_ERROR(out.plus.Insert(t, 1));
      }
    }
    return out;
  }

  /// σ, π∘σ and π over both delta signs through the executor's window
  /// kernel. Counts pass through; a projection collapses under set
  /// semantics like the executor.
  StatusOr<RelationDelta> FilterDelta(const PhysNode& n) {
    auto child = Delta(n.left);
    if (!child.ok()) return child;
    RelationDelta out{Relation(n.attrs), Relation(n.attrs)};
    INCDB_RETURN_IF_ERROR(FilterInto(n, child->plus.rows(), &out.plus));
    INCDB_RETURN_IF_ERROR(FilterInto(n, child->minus.rows(), &out.minus));
    if (n.op != PhysOp::kFilterSel && set()) out.plus.CollapseCounts();
    return out;
  }

  Status FilterInto(const PhysNode& n, const Rows& rows, Relation* out) {
    return window_.Sweep(
        n, rows, plan_->opts.batch_size, NoCheck{},
        [out](size_t kept) { out->Reserve(kept); },
        [out](const Tuple& t, uint64_t c) { return out->Insert(t, c); });
  }

  StatusOr<RelationDelta> UnionDelta(const PhysNode& n) {
    auto l = Delta(n.left);
    if (!l.ok()) return l;
    auto r = Delta(n.right);
    if (!r.ok()) return r;
    RelationDelta out = std::move(*l);
    INCDB_RETURN_IF_ERROR(out.plus.RenameAttrs(n.attrs));
    INCDB_RETURN_IF_ERROR(out.minus.RenameAttrs(n.attrs));
    for (const auto& [t, c] : r->plus.rows()) {
      INCDB_RETURN_IF_ERROR(out.plus.Insert(t, c));
    }
    for (const auto& [t, c] : r->minus.rows()) {
      INCDB_RETURN_IF_ERROR(out.minus.Insert(t, c));
    }
    if (set()) out.plus.CollapseCounts();
    return out;
  }

  /// Δ(L ⋈ R) = ΔL ⋈ R_new + L_old ⋈ ΔR, each sign separately. Only the
  /// sides with non-empty deltas force a boundary re-evaluation of the
  /// opposite input, so a delta confined to one relation joins against
  /// the other side once and never materialises its own old value.
  StatusOr<RelationDelta> JoinDelta(const PhysNode& n) {
    auto l = Delta(n.left);
    if (!l.ok()) return l;
    auto r = Delta(n.right);
    if (!r.ok()) return r;
    RelationDelta out{Relation(n.attrs), Relation(n.attrs)};
    if (!l->plus.Empty() || !l->minus.Empty()) {
      auto rnew = ValueOf(n.right, /*post=*/true);
      if (!rnew.ok()) return rnew.status();
      INCDB_RETURN_IF_ERROR(
          JoinInto(n, l->plus.rows(), (*rnew)->rows(), &out.plus));
      INCDB_RETURN_IF_ERROR(
          JoinInto(n, l->minus.rows(), (*rnew)->rows(), &out.minus));
    }
    if (!r->plus.Empty() || !r->minus.Empty()) {
      auto lold = ValueOf(n.left, /*post=*/false);
      if (!lold.ok()) return lold.status();
      INCDB_RETURN_IF_ERROR(
          JoinInto(n, (*lold)->rows(), r->plus.rows(), &out.plus));
      INCDB_RETURN_IF_ERROR(
          JoinInto(n, (*lold)->rows(), r->minus.rows(), &out.minus));
    }
    if (set()) out.plus.CollapseCounts();
    return out;
  }

  /// Joins two row sets through the executor's sequential join kernels.
  Status JoinInto(const PhysNode& n, const Rows& lrows, const Rows& rrows,
                  Relation* out) {
    if (lrows.empty() || rrows.empty()) return Status::OK();
    return JoinRows(
        n, set(), sql(), lrows, rrows, plan_->opts.batch_size, NoCheck{},
        [out](const Tuple& t, uint64_t c) { return out->Insert(t, c); });
  }

  PlanPtr plan_;
  const CommitInfo& info_;
  ScanResolver pre_scans_;
  ScanResolver post_scans_;
  std::unordered_map<const PhysNode*, bool> affected_;
  std::unordered_map<const PhysNode*, RelationDelta> memo_;
  /// (node, post?) → boundary value; untouched subtrees share the pre key.
  std::map<std::pair<const void*, bool>, RelationView> values_;
  WindowKernel window_;
};

}  // namespace

StatusOr<RelationDelta> PropagateDelta(const PlanPtr& plan,
                                       const CommitInfo& info) {
  if (!plan || !plan->root) {
    return Status::InvalidArgument("PropagateDelta: empty plan");
  }
  if (!plan->maintainable) {
    return Status::FailedPrecondition("plan is not maintainable");
  }
  if (plan->param_count > 0) {
    return Status::InvalidArgument(
        "PropagateDelta: plan has unbound parameters");
  }
  // Maintenance re-walks a plan long after it was compiled; re-verify it
  // (against the pre-commit snapshot, whose schemas it was executed on)
  // before trusting its positions to index delta rows.
  INCDB_RETURN_IF_ERROR(internal::MaybeVerifyPlan(*plan, &info.pre));
  return DeltaPropagator(plan, info).Run();
}

Status ApplyResultDelta(Relation* result, const RelationDelta& delta,
                        bool set_semantics) {
  if (set_semantics) {
    if (!delta.minus.Empty()) {
      return Status::Internal("set-semantics delta carries deletions");
    }
    for (const auto& [t, c] : delta.plus.rows()) {
      if (result->Count(t) == 0) {
        INCDB_RETURN_IF_ERROR(result->Insert(t, 1));
      }
    }
    return Status::OK();
  }
  for (const auto& [t, c] : delta.plus.rows()) {
    INCDB_RETURN_IF_ERROR(result->Insert(t, c));
  }
  for (const auto& [t, c] : delta.minus.rows()) {
    INCDB_RETURN_IF_ERROR(result->Erase(t, c));
  }
  return Status::OK();
}

}  // namespace incdb
