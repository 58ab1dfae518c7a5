#include "algebra/algebra.h"
#include "algebra/builder.h"

namespace incdb {

StatusOr<AlgPtr> Desugar(const AlgPtr& q, const Database& db) {
  auto rec = [&db](const AlgPtr& c) { return Desugar(c, db); };
  // Set-semantics no-op; under bags every downstream consumer of the
  // desugared (set-based) translations deduplicates anyway.
  if (q->kind == OpKind::kDistinct) return rec(q->left);
  switch (q->kind) {
    case OpKind::kJoin:
    case OpKind::kSemijoin:
    case OpKind::kAntijoin:
    case OpKind::kIn:
    case OpKind::kNotIn:
      break;
    default:
      return MapChildren(q, rec);
  }

  auto l = rec(q->left);
  if (!l.ok()) return l;
  auto r = rec(q->right);
  if (!r.ok()) return r;
  AlgPtr left = std::move(l).value();
  AlgPtr right = std::move(r).value();
  if (q->kind == OpKind::kJoin) return Select(Product(left, right), q->cond);

  // ⋉θ is π_{attrs(Q1)}(σθ(Q1 × Q2)) and ▷θ subtracts it from Q1. Under
  // set/naive semantics, [NOT] IN is the semijoin/antijoin on
  // θ ∧ (lcols = rcols).
  CondPtr cond = q->cond;
  if (q->kind == OpKind::kIn || q->kind == OpKind::kNotIn) {
    INCDB_RETURN_IF_ERROR(CheckInColumns(q));
    for (size_t i = 0; i < q->attrs.size(); ++i) {
      cond = CAnd(cond, CEq(q->attrs[i], q->attrs2[i]));
    }
  }
  auto lattrs = OutputAttrs(left, db);
  if (!lattrs.ok()) return lattrs.status();
  AlgPtr semi = Project(Select(Product(left, right), cond), *lattrs);
  if (q->kind == OpKind::kSemijoin || q->kind == OpKind::kIn) return semi;
  return Diff(left, semi);
}

}  // namespace incdb
