#include "algebra/algebra.h"
#include "algebra/builder.h"

namespace incdb {

namespace {

/// Finishes Desugar on a DesugarToSemijoins result: drops δ (a no-op
/// under the set semantics the expansion is faithful to) and expands every
/// ⋉θ / ▷θ: ⋉θ is π_{attrs(Q1)}(σθ(Q1 × Q2)) and ▷θ subtracts it from Q1.
StatusOr<AlgPtr> ExpandSemijoins(const AlgPtr& q, const Database& db) {
  if (q->kind == OpKind::kDistinct) return ExpandSemijoins(q->left, db);
  auto out = MapChildren(
      q, [&db](const AlgPtr& c) { return ExpandSemijoins(c, db); });
  if (!out.ok()) return out;
  const AlgPtr& n = *out;
  if (n->kind != OpKind::kSemijoin && n->kind != OpKind::kAntijoin) {
    return out;
  }
  auto lattrs = OutputAttrs(n->left, db);
  if (!lattrs.ok()) return lattrs.status();
  AlgPtr semi = Project(Select(Product(n->left, n->right), n->cond), *lattrs);
  if (n->kind == OpKind::kSemijoin) return semi;
  return Diff(n->left, semi);
}

}  // namespace

StatusOr<AlgPtr> DesugarToSemijoins(const AlgPtr& q) {
  auto out = MapChildren(q, DesugarToSemijoins);
  if (!out.ok()) return out;
  const AlgPtr& n = *out;
  switch (q->kind) {
    case OpKind::kJoin:
      return Select(Product(n->left, n->right), q->cond);
    case OpKind::kIn:
    case OpKind::kNotIn: {
      // Under naive semantics, [NOT] IN is the semijoin/antijoin on
      // θ ∧ (lcols = rcols).
      auto cond = InSemijoinCond(q, /*sql=*/false);
      if (!cond.ok()) return cond.status();
      return q->kind == OpKind::kIn ? Semijoin(n->left, n->right, *cond)
                                    : Antijoin(n->left, n->right, *cond);
    }
    default:
      return out;
  }
}

StatusOr<AlgPtr> Desugar(const AlgPtr& q, const Database& db) {
  auto semijoins = DesugarToSemijoins(q);
  if (!semijoins.ok()) return semijoins;
  return ExpandSemijoins(*semijoins, db);
}

}  // namespace incdb
