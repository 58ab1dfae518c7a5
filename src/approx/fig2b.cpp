#include "algebra/builder.h"
#include "approx/approx.h"

namespace incdb {

namespace {

/// Rewrites ∩ as Q1 − (Q1 − Q2) after desugaring.
StatusOr<AlgPtr> StripIntersect(const AlgPtr& q) {
  auto out = MapChildren(q, StripIntersect);
  if (!out.ok() || q->kind != OpKind::kIntersect) return out;
  const AlgPtr& left = (*out)->left;
  return Diff(left, Diff(left, (*out)->right));
}

/// kUnsupported unless the subtree has no ÷, ⋉⇑ or Dom (after
/// DesugarToSemijoins and the ∩ strip, it is then the core grammar plus ⋉,
/// ▷ and δ) and no const(·)/null(·) test.
Status CheckTranslatable(const AlgPtr& q) {
  switch (q->kind) {
    case OpKind::kDivision:
    case OpKind::kAntijoinUnify:
    case OpKind::kDom:
      return Status::Unsupported(
          "the Fig. 2 translations are defined for the core grammar "
          "{scan, σ, π, ρ, ×, ∪, −} plus ⋉ and ▷; the query uses ÷, ⋉⇑ or "
          "Dom");
    default:
      break;
  }
  if (q->cond && HasNullConstTest(q->cond)) {
    return Status::Unsupported(
        "the Fig. 2 translations accept the paper's source condition "
        "grammar over = and ≠ only; const(·)/null(·) tests in the *source* "
        "query are not certain-answer meaningful (see HasNullConstTest)");
  }
  if (q->left) INCDB_RETURN_IF_ERROR(CheckTranslatable(q->left));
  if (q->right) INCDB_RETURN_IF_ERROR(CheckTranslatable(q->right));
  return Status::OK();
}

}  // namespace

StatusOr<AlgPtr> PrepareForTranslation(const AlgPtr& q, const Database& db) {
  auto semijoins = DesugarToSemijoins(q);
  if (!semijoins.ok()) return semijoins;
  auto prepared = StripIntersect(*semijoins);
  if (!prepared.ok()) return prepared;
  INCDB_RETURN_IF_ERROR(CheckTranslatable(*prepared));
  // The rules below never look at a schema, so the query is checked
  // against the database once, here, instead of failing later in the
  // compiled translation.
  auto attrs = OutputAttrs(*prepared, db);
  if (!attrs.ok()) return attrs.status();
  return prepared;
}

namespace {

/// θ? = ¬(¬θ)*: false only where θ is certainly false, i.e. θ(v(t)) fails
/// for every valuation v.
CondPtr MaybeCond(const CondPtr& c) {
  return Negate(StarTranslate(Negate(c)));
}

/// Mutually recursive Fig. 2(b) rules. −, σ, ⋉ and ▷ do more than
/// translate their inputs: R+ = R? = R, and ∪, ×, π, ρ and δ map over
/// their children. Preconditions: q is PrepareForTranslation output. Beside
/// each ⋉/▷ rule, its soundness for a valuation v, from the three facts
/// approx.h lists.
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
    case OpKind::kSemijoin: {
      // (Q1 ⋉θ Q2)+ = Q1+ ⋉θ* Q2+. A kept t has a u ∈ Q2+(D) with
      // θ*(t, u); then v(t) ∈ Q1(v(D)), v(u) ∈ Q2(v(D)) and
      // θ(v(t), v(u)), so v(t) ∈ (Q1 ⋉θ Q2)(v(D)).
      auto l = Plus(q->left);
      if (!l.ok()) return l;
      auto r = Plus(q->right);
      if (!r.ok()) return r;
      return Semijoin(*l, *r, StarTranslate(q->cond));
    }
    case OpKind::kAntijoin: {
      // (Q1 ▷θ Q2)+ = Q1+ ▷θ? Q2?. A kept t has v(t) ∈ Q1(v(D)), and no
      // u ∈ Q2?(D) with θ?(t, u). A partner s ∈ Q2(v(D)) of v(t) would be
      // some v(u) with u ∈ Q2?(D) and θ(v(t), v(u)), hence θ?(t, u); so
      // there is none and v(t) ∈ (Q1 ▷θ Q2)(v(D)).
      auto l = Plus(q->left);
      if (!l.ok()) return l;
      auto r = Maybe(q->right);
      if (!r.ok()) return r;
      return Antijoin(*l, *r, MaybeCond(q->cond));
    }
    case OpKind::kScan:
    case OpKind::kUnion:
    case OpKind::kProduct:
    case OpKind::kProject:
    case OpKind::kRename:
    case OpKind::kDistinct:  // (δQ)+ = δ(Q+): see approx.h
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
      // (σθ Q)? = σθ?(Q?)
      auto in = Maybe(q->left);
      if (!in.ok()) return in;
      return Select(*in, MaybeCond(q->cond));
    }
    case OpKind::kSemijoin: {
      // (Q1 ⋉θ Q2)? = Q1? ⋉θ? Q2?. Each s ∈ (Q1 ⋉θ Q2)(v(D)) is v(t) for
      // a t ∈ Q1?(D), and its partner is v(u) for a u ∈ Q2?(D); as
      // θ(v(t), v(u)) holds, so does θ?(t, u), and t is kept.
      auto l = Maybe(q->left);
      if (!l.ok()) return l;
      auto r = Maybe(q->right);
      if (!r.ok()) return r;
      return Semijoin(*l, *r, MaybeCond(q->cond));
    }
    case OpKind::kAntijoin: {
      // (Q1 ▷θ Q2)? = Q1? ▷θ* Q2+. Each s ∈ (Q1 ▷θ Q2)(v(D)) is v(t) for
      // a t ∈ Q1?(D). A u ∈ Q2+(D) with θ*(t, u) would give
      // v(u) ∈ Q2(v(D)) with θ(s, v(u)), a partner of s; so there is
      // none, and t is kept.
      auto l = Maybe(q->left);
      if (!l.ok()) return l;
      auto r = Plus(q->right);
      if (!r.ok()) return r;
      return Antijoin(*l, *r, StarTranslate(q->cond));
    }
    case OpKind::kScan:
    case OpKind::kUnion:
    case OpKind::kProduct:
    case OpKind::kProject:
    case OpKind::kRename:
    case OpKind::kDistinct:  // (δQ)? = δ(Q?)
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
