#include "algebra/builder.h"
#include "approx/approx.h"

namespace incdb {

namespace {

/// Mutually recursive Fig. 2(a) rules. Qt translates scans, ∪, ×, π and ρ
/// structurally (MapChildren) and rewrites − and σ; every Qf rule but ρ's
/// builds new operators. Dom^k nodes are named after the subquery whose
/// complement they approximate, so set operations compose; they carry the
/// constants mentioned anywhere in the original query (the active domain
/// of the naive-evaluation setting). Scheme (a) has no ⋉/▷ rules, so it
/// reads the core grammar (PrepareCore).
class Fig2aTranslator {
 public:
  Fig2aTranslator(const Database& db, std::vector<Value> query_consts)
      : db_(db), query_consts_(std::move(query_consts)) {}

  StatusOr<AlgPtr> True(const AlgPtr& q) {
    switch (q->kind) {
      case OpKind::kDifference: {
        // (Q1 − Q2)t = Q1t ∩ Q2f
        auto l = True(q->left);
        if (!l.ok()) return l;
        auto r = False(q->right);
        if (!r.ok()) return r;
        return Intersect(*l, *r);
      }
      case OpKind::kSelect: {
        auto in = True(q->left);
        if (!in.ok()) return in;
        return Select(*in, StarTranslate(q->cond));
      }
      case OpKind::kScan:  // Rt = R
      case OpKind::kUnion:
      case OpKind::kProduct:
      case OpKind::kProject:
      case OpKind::kRename:
        return MapChildren(q, [this](const AlgPtr& c) { return True(c); });
      default:
        return Status::Unsupported(
            "Qt translation: run PrepareForTranslation first");
    }
  }

  StatusOr<AlgPtr> False(const AlgPtr& q) {
    auto attrs = OutputAttrs(q, db_);
    if (!attrs.ok()) return attrs.status();
    switch (q->kind) {
      case OpKind::kScan:
        // Rf = Dom^ar(R) ⋉⇑ R
        return AntijoinUnify(Dom(*attrs), q);
      case OpKind::kUnion: {
        // (Q1 ∪ Q2)f = Q1f ∩ Q2f
        auto l = False(q->left);
        if (!l.ok()) return l;
        auto r = False(q->right);
        if (!r.ok()) return r;
        return Intersect(*l, *r);
      }
      case OpKind::kDifference: {
        // (Q1 − Q2)f = Q1f ∪ Q2t
        auto l = False(q->left);
        if (!l.ok()) return l;
        auto r = True(q->right);
        if (!r.ok()) return r;
        return Union(*l, *r);
      }
      case OpKind::kSelect: {
        // (σθ Q)f = Qf ∪ σ(¬θ)*(Dom^ar(Q))
        auto in = False(q->left);
        if (!in.ok()) return in;
        return Union(*in, Select(Dom(*attrs), StarTranslate(Negate(q->cond))));
      }
      case OpKind::kProduct: {
        // (Q1 × Q2)f = Q1f × Dom^ar(Q2) ∪ Dom^ar(Q1) × Q2f
        auto lf = False(q->left);
        if (!lf.ok()) return lf;
        auto rf = False(q->right);
        if (!rf.ok()) return rf;
        auto lattrs = OutputAttrs(q->left, db_);
        if (!lattrs.ok()) return lattrs.status();
        auto rattrs = OutputAttrs(q->right, db_);
        if (!rattrs.ok()) return rattrs.status();
        return Union(Product(*lf, Dom(*rattrs)), Product(Dom(*lattrs), *rf));
      }
      case OpKind::kProject: {
        // (πα Q)f = πα(Qf) − πα(Dom^ar(Q) − Qf)
        auto in = False(q->left);
        if (!in.ok()) return in;
        auto in_attrs = OutputAttrs(q->left, db_);
        if (!in_attrs.ok()) return in_attrs.status();
        return Diff(Project(*in, q->attrs),
                    Project(Diff(Dom(*in_attrs), *in), q->attrs));
      }
      case OpKind::kRename:
        return MapChildren(q, [this](const AlgPtr& c) { return False(c); });
      default:
        return Status::Unsupported(
            "Qf translation: run PrepareForTranslation first");
    }
  }

 private:
  AlgPtr Dom(const std::vector<std::string>& attrs) {
    return DomK(attrs, query_consts_);
  }

  const Database& db_;
  std::vector<Value> query_consts_;
};

/// PrepareForTranslation, then Desugar, which drops δ and expands the ⋉/▷
/// it keeps.
StatusOr<AlgPtr> PrepareCore(const AlgPtr& q, const Database& db) {
  auto prepared = PrepareForTranslation(q, db);
  if (!prepared.ok()) return prepared;
  return Desugar(*prepared, db);
}

}  // namespace

StatusOr<AlgPtr> TranslateCertTrue(const AlgPtr& q, const Database& db) {
  auto core = PrepareCore(q, db);
  if (!core.ok()) return core;
  Fig2aTranslator tr(db, QueryConstants(q));
  return tr.True(*core);
}

StatusOr<AlgPtr> TranslateCertFalse(const AlgPtr& q, const Database& db) {
  auto core = PrepareCore(q, db);
  if (!core.ok()) return core;
  Fig2aTranslator tr(db, QueryConstants(q));
  return tr.False(*core);
}

StatusOr<Relation> EvalCertTrue(const AlgPtr& q, const Database& db,
                                const EvalOptions& opts) {
  auto t = TranslateCertTrue(q, db);
  if (!t.ok()) return t.status();
  return EvalSet(*t, db, opts);
}

StatusOr<Relation> EvalCertFalse(const AlgPtr& q, const Database& db,
                                 const EvalOptions& opts) {
  auto t = TranslateCertFalse(q, db);
  if (!t.ok()) return t.status();
  return EvalSet(*t, db, opts);
}

}  // namespace incdb
