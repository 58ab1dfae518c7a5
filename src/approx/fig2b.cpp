#include "algebra/builder.h"
#include "approx/approx.h"

namespace incdb {

namespace {

/// Rewrites ∩ as Q1 − (Q1 − Q2) after full desugaring.
StatusOr<AlgPtr> StripIntersect(const AlgPtr& q) {
  auto out = MapChildren(q, StripIntersect);
  if (!out.ok() || q->kind != OpKind::kIntersect) return out;
  const AlgPtr& left = (*out)->left;
  return Diff(left, Diff(left, (*out)->right));
}

bool SelectionsAreTranslatable(const AlgPtr& q) {
  if (q->cond && HasNullConstTest(q->cond)) return false;
  if (q->left && !SelectionsAreTranslatable(q->left)) return false;
  if (q->right && !SelectionsAreTranslatable(q->right)) return false;
  return true;
}

}  // namespace

StatusOr<AlgPtr> PrepareForTranslation(const AlgPtr& q, const Database& db) {
  auto desugared = Desugar(q, db);
  if (!desugared.ok()) return desugared;
  auto core = StripIntersect(*desugared);
  if (!core.ok()) return core;
  if (!IsCoreGrammar(*core)) {
    return Status::Unsupported(
        "the Fig. 2 translations are defined for the core grammar "
        "{scan, σ, π, ρ, ×, ∪, −}; the query uses ÷, ⋉⇑ or Dom");
  }
  if (!SelectionsAreTranslatable(*core)) {
    return Status::Unsupported(
        "the Fig. 2 translations accept the paper's source condition "
        "grammar over = and ≠ only; const(·)/null(·) tests in the *source* "
        "query are not certain-answer meaningful (see HasNullConstTest)");
  }
  return core;
}

namespace {

/// Mutually recursive Fig. 2(b) rules over the core grammar. Only − and σ
/// do more than translate their inputs: R+ = R? = R, and ∪, ×, π, ρ map
/// over their children. Preconditions: q is core grammar
/// (PrepareForTranslation output).
StatusOr<AlgPtr> Plus(const AlgPtr& q);
StatusOr<AlgPtr> Maybe(const AlgPtr& q);

StatusOr<AlgPtr> Plus(const AlgPtr& q) {
  switch (q->kind) {
    case OpKind::kDifference: {
      // (Q1 − Q2)+ = Q1+ ⋉⇑ Q2?
      auto l = Plus(q->left);
      if (!l.ok()) return l;
      auto r = Maybe(q->right);
      if (!r.ok()) return r;
      return AntijoinUnify(*l, *r);
    }
    case OpKind::kSelect: {
      // (σθ Q)+ = σθ*(Q+)
      auto in = Plus(q->left);
      if (!in.ok()) return in;
      return Select(*in, StarTranslate(q->cond));
    }
    case OpKind::kScan:
    case OpKind::kUnion:
    case OpKind::kProduct:
    case OpKind::kProject:
    case OpKind::kRename:
      return MapChildren(q, Plus);
    default:
      return Status::Unsupported("Q+ translation: run PrepareForTranslation");
  }
}

StatusOr<AlgPtr> Maybe(const AlgPtr& q) {
  switch (q->kind) {
    case OpKind::kDifference: {
      // (Q1 − Q2)? = Q1? − Q2+
      auto l = Maybe(q->left);
      if (!l.ok()) return l;
      auto r = Plus(q->right);
      if (!r.ok()) return r;
      return WithChildren(q, *l, *r);
    }
    case OpKind::kSelect: {
      // (σθ Q)? = σ¬(¬θ)*(Q?)
      auto in = Maybe(q->left);
      if (!in.ok()) return in;
      return Select(*in, Negate(StarTranslate(Negate(q->cond))));
    }
    case OpKind::kScan:
    case OpKind::kUnion:
    case OpKind::kProduct:
    case OpKind::kProject:
    case OpKind::kRename:
      return MapChildren(q, Maybe);
    default:
      return Status::Unsupported("Q? translation: run PrepareForTranslation");
  }
}

}  // namespace

StatusOr<AlgPtr> TranslatePlus(const AlgPtr& q, const Database& db) {
  auto core = PrepareForTranslation(q, db);
  if (!core.ok()) return core;
  return Plus(*core);
}

StatusOr<AlgPtr> TranslateMaybe(const AlgPtr& q, const Database& db) {
  auto core = PrepareForTranslation(q, db);
  if (!core.ok()) return core;
  return Maybe(*core);
}

StatusOr<Relation> EvalPlus(const AlgPtr& q, const Database& db,
                            const EvalOptions& opts) {
  auto t = TranslatePlus(q, db);
  if (!t.ok()) return t.status();
  return EvalSet(*t, db, opts);
}

StatusOr<Relation> EvalMaybe(const AlgPtr& q, const Database& db,
                             const EvalOptions& opts) {
  auto t = TranslateMaybe(q, db);
  if (!t.ok()) return t.status();
  return EvalSet(*t, db, opts);
}

}  // namespace incdb
