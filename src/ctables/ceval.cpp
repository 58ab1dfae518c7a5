#include "ctables/ceval.h"

#include <cassert>
#include <memory>

#include "core/fault.h"

namespace incdb {

const char* ToString(CStrategy s) {
  switch (s) {
    case CStrategy::kEager:
      return "eager";
    case CStrategy::kSemiEager:
      return "semi-eager";
    case CStrategy::kLazy:
      return "lazy";
    case CStrategy::kAware:
      return "aware";
  }
  return "?";
}

namespace {

/// Condition of the whole-tuple equality t̄ = s̄ as a c-condition.
CCondPtr TupleEqCond(const Tuple& a, const Tuple& b) {
  CCondPtr out = CcTrue();
  for (size_t i = 0; i < a.arity(); ++i) {
    out = CcAnd(out, CcEq(a[i], b[i]));
  }
  return out;
}

/// A selection condition θ with attribute positions resolved *once*
/// against the input schema (each σ node is visited once per evaluation,
/// its tuples many times). Instantiate() translates θ on a concrete
/// (possibly null-carrying) tuple into a condition on the nulls, under the
/// possible-world reading: in every world all cells hold constants, so
/// const(A) ↦ true and null(A) ↦ false.
class CompiledSelCond {
 public:
  static StatusOr<CompiledSelCond> Make(const CondPtr& theta,
                                        const std::vector<std::string>& attrs,
                                        const std::vector<Value>& params) {
    CompiledSelCond out;
    auto root = Build(theta, attrs, params);
    if (!root.ok()) return root.status();
    out.root_ = std::move(*root);
    return out;
  }

  CCondPtr Instantiate(const Tuple& t) const { return Inst(*root_, t); }

 private:
  struct Node {
    CondKind kind;
    size_t i = 0, j = 0;
    Value constant;
    std::unique_ptr<Node> left, right;
  };

  static StatusOr<std::unique_ptr<Node>> Build(
      const CondPtr& theta, const std::vector<std::string>& attrs,
      const std::vector<Value>& params) {
    auto node = std::make_unique<Node>();
    node->kind = theta->kind;
    if (theta->kind == CondKind::kAnd || theta->kind == CondKind::kOr) {
      auto l = Build(theta->left, attrs, params);
      if (!l.ok()) return l.status();
      auto r = Build(theta->right, attrs, params);
      if (!r.ok()) return r.status();
      node->left = std::move(*l);
      node->right = std::move(*r);
      return node;
    }
    if (HasOrderComparison(theta)) {
      return Status::Unsupported(
          "the [36] strategies are defined over (in)equality conditions; "
          "c-table conditions have no order atoms");
    }
    const size_t operands = CondAttrOperands(theta->kind);
    if (operands >= 1) {
      auto i = ResolveCondAttr(attrs, theta->lhs);
      if (!i.ok()) return i.status();
      node->i = *i;
    }
    if (operands == 2) {
      auto j = ResolveCondAttr(attrs, theta->rhs);
      if (!j.ok()) return j.status();
      node->j = *j;
    }
    if (KindHasConstant(theta->kind)) {
      // Parameter resolution: the query keeps the placeholder; the bound
      // constant lands here, at per-evaluation condition compilation.
      auto bound = ResolveParamBinding(theta->constant, params);
      if (!bound.ok()) return bound.status();
      node->constant = *bound;
    }
    return node;
  }

  static CCondPtr Inst(const Node& n, const Tuple& t) {
    switch (n.kind) {
      case CondKind::kTrue:
        return CcTrue();
      case CondKind::kFalse:
        return CcFalse();
      case CondKind::kAnd:
        return CcAnd(Inst(*n.left, t), Inst(*n.right, t));
      case CondKind::kOr:
        return CcOr(Inst(*n.left, t), Inst(*n.right, t));
      case CondKind::kEqAttrAttr:
        return CcEq(t[n.i], t[n.j]);
      case CondKind::kNeqAttrAttr:
        return CcNeq(t[n.i], t[n.j]);
      case CondKind::kEqAttrConst:
        return CcEq(t[n.i], n.constant);
      case CondKind::kNeqAttrConst:
        return CcNeq(t[n.i], n.constant);
      case CondKind::kIsConst:
        return CcTrue();  // every world instantiates nulls by constants
      case CondKind::kIsNull:
        return CcFalse();
      default:
        break;
    }
    assert(false && "unreachable: Build rejected this kind");
    return CcFalse();
  }

  std::unique_ptr<Node> root_;
};

/// Walks the desugared algebra tree, which CEval has validated once with
/// OutputAttrs (so every scan, projection attribute and arity below is
/// known to resolve), applying the c-table semantics of each operator. No
/// hash fast path: over c-tables a null join key is a *condition*, not a
/// mismatch.
class CEvaluator {
 public:
  CEvaluator(const Database& db, CStrategy strategy,
             const std::vector<Value>& params, const ExecContext& ctx)
      : cdb_(CDatabase::FromDatabase(db)),
        strategy_(strategy),
        params_(&params),
        ctx_(&ctx),
        limited_(ctx.limited()) {}

  StatusOr<CTable> Eval(const AlgPtr& q) {
    auto out = EvalInner(q);
    if (!out.ok()) return out;
    switch (strategy_) {
      case CStrategy::kEager:
        return GroundAll(*out, /*propagate=*/false);
      case CStrategy::kSemiEager:
        return GroundAll(*out, /*propagate=*/true);
      default:
        return out;
    }
  }

  /// Top-level entry: applies the aware strategy's final pass.
  StatusOr<CTable> EvalTop(const AlgPtr& q) {
    auto out = Eval(q);
    if (!out.ok()) return out;
    if (strategy_ == CStrategy::kAware || strategy_ == CStrategy::kLazy) {
      // Final equality propagation (lazy applies it at differences too; a
      // difference-free query would otherwise never propagate).
      return Propagate(out->Normalized());
    }
    return out;
  }

 private:
  /// Grounds every condition to t/f/u (dropping f) after merging
  /// duplicates; optionally propagates forced equalities into data first.
  static CTable GroundAll(const CTable& in, bool propagate) {
    CTable merged = propagate ? Propagate(in).Normalized() : in.Normalized();
    CTable out(merged.attrs());
    for (const CTuple& ct : merged.tuples()) {
      switch (GroundCC(ct.cond)) {
        case TV3::kT:
          out.Add(ct.data, CcTrue());
          break;
        case TV3::kU:
          out.Add(ct.data, CcUnknown());
          break;
        case TV3::kF:
          break;
      }
    }
    return out;
  }

  /// Applies forced-equality substitutions to the *data* of each tuple.
  /// The condition is kept untouched: the rewriting ⟨⊥2, ⊥1=c ∧ ⊥1=⊥2⟩ ↦
  /// ⟨c, ⊥1=c ∧ ⊥1=⊥2⟩ is sound because in every world where the
  /// condition holds the two tuples denote the same fact — whereas
  /// substituting into the condition itself would wrongly discharge it
  /// (⊥1=c would become true). Grounding the untouched condition then
  /// yields the paper's ⟨c, u⟩.
  static CTable Propagate(const CTable& in) {
    CTable out(in.attrs());
    for (const CTuple& ct : in.tuples()) {
      std::map<uint64_t, Value> forced = ForcedBindings(ct.cond);
      if (forced.empty()) {
        out.Add(ct.data, ct.cond);
        continue;
      }
      Tuple data = ct.data;
      for (size_t i = 0; i < data.arity(); ++i) {
        if (data[i].is_null()) {
          auto it = forced.find(data[i].null_id());
          if (it != forced.end()) data[i] = it->second;
        }
      }
      out.Add(std::move(data), ct.cond);
    }
    return out;
  }

  StatusOr<CTable> EvalInner(const AlgPtr& q) {
    INCDB_FAULT_POINT("ceval.node");
    switch (q->kind) {
      case OpKind::kScan:
        return cdb_.tables.at(q->rel_name);
      case OpKind::kSelect: {
        auto in = Eval(q->left);
        if (!in.ok()) return in;
        auto sel = CompiledSelCond::Make(q->cond, in->attrs(), *params_);
        if (!sel.ok()) return sel.status();
        CTable out(in->attrs());
        for (const CTuple& ct : in->tuples()) {
          INCDB_RETURN_IF_ERROR(Checkpoint());
          out.Add(ct.data, CcAnd(ct.cond, sel->Instantiate(ct.data)));
        }
        return out;
      }
      case OpKind::kProject: {
        auto in = Eval(q->left);
        if (!in.ok()) return in;
        std::vector<size_t> pos;
        pos.reserve(q->attrs.size());
        for (const std::string& a : q->attrs) {
          pos.push_back(IndexOf(in->attrs(), a));
        }
        CTable out(q->attrs);
        for (const CTuple& ct : in->tuples()) {
          out.Add(ct.data.Project(pos), ct.cond);
        }
        return out;
      }
      case OpKind::kRename: {
        auto in = Eval(q->left);
        if (!in.ok()) return in;
        CTable out(q->attrs);
        for (const CTuple& ct : in->tuples()) out.Add(ct.data, ct.cond);
        return out;
      }
      case OpKind::kProduct: {
        auto l = Eval(q->left);
        if (!l.ok()) return l;
        auto r = Eval(q->right);
        if (!r.ok()) return r;
        std::vector<std::string> attrs = l->attrs();
        attrs.insert(attrs.end(), r->attrs().begin(), r->attrs().end());
        CTable out(std::move(attrs));
        for (const CTuple& lt : l->tuples()) {
          for (const CTuple& rt : r->tuples()) {
            INCDB_RETURN_IF_ERROR(Checkpoint());
            out.Add(lt.data.Concat(rt.data), CcAnd(lt.cond, rt.cond));
          }
        }
        return out;
      }
      case OpKind::kUnion: {
        auto l = Eval(q->left);
        if (!l.ok()) return l;
        auto r = Eval(q->right);
        if (!r.ok()) return r;
        CTable out(l->attrs());
        for (const CTuple& ct : l->tuples()) out.Add(ct.data, ct.cond);
        for (const CTuple& ct : r->tuples()) out.Add(ct.data, ct.cond);
        return out;
      }
      case OpKind::kDifference: {
        auto l = Eval(q->left);
        if (!l.ok()) return l;
        auto r = Eval(q->right);
        if (!r.ok()) return r;
        CTable out(l->attrs());
        for (const CTuple& lt : l->tuples()) {
          INCDB_RETURN_IF_ERROR(Checkpoint(1 + r->tuples().size()));
          CCondPtr cond = lt.cond;
          for (const CTuple& rt : r->tuples()) {
            cond = CcAnd(
                cond, CcNot(CcAnd(rt.cond, TupleEqCond(lt.data, rt.data))));
          }
          out.Add(lt.data, cond);
        }
        // The lazy strategy grounds (with propagation) at differences.
        if (strategy_ == CStrategy::kLazy) {
          return GroundAll(out, /*propagate=*/true);
        }
        return out;
      }
      case OpKind::kIntersect: {
        auto l = Eval(q->left);
        if (!l.ok()) return l;
        auto r = Eval(q->right);
        if (!r.ok()) return r;
        CTable out(l->attrs());
        for (const CTuple& lt : l->tuples()) {
          INCDB_RETURN_IF_ERROR(Checkpoint(1 + r->tuples().size()));
          CCondPtr any = CcFalse();
          for (const CTuple& rt : r->tuples()) {
            any = CcOr(any, CcAnd(rt.cond, TupleEqCond(lt.data, rt.data)));
          }
          out.Add(lt.data, CcAnd(lt.cond, any));
        }
        return out;
      }
      default:
        return Status::Unsupported(
            "conditional evaluation covers the core grammar + ∩ (no ÷, ⋉⇑ "
            "or Dom)");
    }
  }

  /// Amortized cooperative checkpoint for the quadratic condition-building
  /// loops (same contract as the executor's: one counter add per unit of
  /// work, a real Check() per interval).
  Status Checkpoint(uint64_t work = 1) {
    if (!limited_) return Status::OK();
    check_acc_ += work;
    if (check_acc_ < 4096) return Status::OK();
    check_acc_ = 0;
    return ctx_->Check();
  }

  CDatabase cdb_;
  CStrategy strategy_;
  const std::vector<Value>* params_;
  const ExecContext* ctx_;
  const bool limited_;
  uint64_t check_acc_ = 0;
};

}  // namespace

StatusOr<CTable> CEval(const AlgPtr& q, const Database& db, CStrategy s,
                       const std::vector<Value>& params,
                       const ExecContext& ctx) {
  if (ctx.limited()) INCDB_RETURN_IF_ERROR(ctx.Check());
  auto desugared = Desugar(q, db);
  if (!desugared.ok()) return desugared.status();
  // One validation pass over the whole tree (unknown relations and
  // attributes, arities, product disjointness); the walker then trusts
  // every name it resolves.
  auto attrs = OutputAttrs(*desugared, db);
  if (!attrs.ok()) return attrs.status();
  CEvaluator ev(db, s, params, ctx);
  return ev.EvalTop(*desugared);
}

StatusOr<Relation> CEvalCertain(const AlgPtr& q, const Database& db,
                                CStrategy s, const std::vector<Value>& params,
                                const ExecContext& ctx) {
  auto t = CEval(q, db, s, params, ctx);
  if (!t.ok()) return t.status();
  return t->CertainTuples();
}

StatusOr<Relation> CEvalPossible(const AlgPtr& q, const Database& db,
                                 CStrategy s,
                                 const std::vector<Value>& params,
                                 const ExecContext& ctx) {
  auto t = CEval(q, db, s, params, ctx);
  if (!t.ok()) return t.status();
  return t->PossibleTuples();
}

}  // namespace incdb
