#include "logic/fo_eval.h"

#include <cassert>
#include <map>
#include <memory>

#include "eval/plan.h"
#include "eval/unify_index.h"
#include "logic/kleene.h"

namespace incdb {

namespace {

StatusOr<Value> ResolveTerm(const Term& t, const Assignment& a) {
  if (!t.is_var) return t.constant;
  auto it = a.find(t.var);
  if (it == a.end()) {
    return Status::InvalidArgument("unbound variable " + t.var);
  }
  return it->second;
}

/// Equality atoms under each atom semantics are the condition atoms
/// CondEqTV of the matching mode: (12) is naive, (13b) unif, and (14)
/// applied to Eq as an extra relation is SQL's u on any null.
TV3 EqSem(const Value& a, const Value& b, AtomSem sem) {
  const CondMode mode = sem == AtomSem::kBool   ? CondMode::kNaive
                        : sem == AtomSem::kUnif ? CondMode::kUnif
                                                : CondMode::kSql;
  return CondEqTV(a, b, mode);
}

TV3 AtomSemEval(const Relation& rel, const Tuple& args, AtomSem sem) {
  switch (sem) {
    case AtomSem::kBool:
      return FromBool(rel.Contains(args));
    case AtomSem::kUnif: {
      // (13a): t if ā ∈ R; f if no tuple of R unifies with ā; else u.
      if (rel.Contains(args)) return TV3::kT;
      for (const auto& [t, c] : rel.rows()) {
        if (Unifiable(args, t)) return TV3::kU;
      }
      return TV3::kF;
    }
    case AtomSem::kNullfree: {
      // (14): two-valued on constant tuples, u otherwise.
      if (!args.AllConst()) return TV3::kU;
      return FromBool(rel.Contains(args));
    }
  }
  return TV3::kU;
}

class FOEvaluator {
 public:
  FOEvaluator(const Database& db, const MixedSemantics& sem,
              const ExecContext& ctx)
      : sem_(sem), scans_(db), ctx_(&ctx), limited_(ctx.limited()) {
    for (const Value& v : db.ActiveDomain()) domain_.push_back(v);
  }

  StatusOr<TV3> Eval(const FormulaPtr& f, Assignment& a) {
    switch (f->kind) {
      case FKind::kAtom: {
        // Atoms re-evaluate inside quantifier loops: resolve the scan via
        // the executor's shared ScanResolver, which borrows set base
        // relations in place and materialises a collapsed copy at most
        // once otherwise.
        auto view = scans_.Resolve(f->rel, /*collapse_to_set=*/true);
        if (!view.ok()) return view.status();
        const Relation& rel = view->rel();
        if (rel.arity() != f->terms.size()) {
          return Status::InvalidArgument("atom arity mismatch for " + f->rel);
        }
        Tuple args;
        for (const Term& t : f->terms) {
          auto v = ResolveTerm(t, a);
          if (!v.ok()) return v.status();
          args.Append(*v);
        }
        if (sem_.relations == AtomSem::kUnif) {
          // (13a): t if ā ∈ R; f if no tuple of R unifies with ā; else u.
          // Quantifier sweeps probe the same relation once per
          // assignment, so the "any unifiable" test runs over a lazily
          // built per-relation null-mask index instead of a linear scan.
          // The ScanResolver's cached view outlives the index.
          if (rel.Contains(args)) return TV3::kT;
          std::unique_ptr<UnifyIndex>& idx = unify_[f->rel];
          if (!idx) {
            idx = std::make_unique<UnifyIndex>(rel.rows(), rel.arity(),
                                               /*use_index=*/true);
          }
          return idx->AnyUnifiable(args) ? TV3::kU : TV3::kF;
        }
        return AtomSemEval(rel, args, sem_.relations);
      }
      case FKind::kEq: {
        auto x = ResolveTerm(f->terms[0], a);
        if (!x.ok()) return x.status();
        auto y = ResolveTerm(f->terms[1], a);
        if (!y.ok()) return y.status();
        return EqSem(*x, *y, sem_.equality);
      }
      case FKind::kIsConst: {
        auto x = ResolveTerm(f->terms[0], a);
        if (!x.ok()) return x.status();
        return FromBool(x->is_const());
      }
      case FKind::kIsNull: {
        auto x = ResolveTerm(f->terms[0], a);
        if (!x.ok()) return x.status();
        return FromBool(x->is_null());
      }
      case FKind::kAnd: {
        auto l = Eval(f->l, a);
        if (!l.ok()) return l;
        if (*l == TV3::kF) return TV3::kF;  // short-circuit is sound in L3v
        auto r = Eval(f->r, a);
        if (!r.ok()) return r;
        return Kleene::And(*l, *r);
      }
      case FKind::kOr: {
        auto l = Eval(f->l, a);
        if (!l.ok()) return l;
        if (*l == TV3::kT) return TV3::kT;
        auto r = Eval(f->r, a);
        if (!r.ok()) return r;
        return Kleene::Or(*l, *r);
      }
      case FKind::kNot: {
        auto l = Eval(f->l, a);
        if (!l.ok()) return l;
        return Kleene::Not(*l);
      }
      case FKind::kAssert: {
        auto l = Eval(f->l, a);
        if (!l.ok()) return l;
        return Kleene::Assert(*l);
      }
      case FKind::kExists:
      case FKind::kForall: {
        // (11): big ∨ / ∧ over the active domain.
        bool exists = f->kind == FKind::kExists;
        TV3 acc = exists ? TV3::kF : TV3::kT;
        auto saved = a.find(f->var) != a.end()
                         ? std::optional<Value>(a[f->var])
                         : std::nullopt;
        for (const Value& v : domain_) {
          if (limited_ && ++check_acc_ >= 4096) {
            check_acc_ = 0;
            Status cst = ctx_->Check();
            if (!cst.ok()) {
              RestoreVar(a, f->var, saved);
              return cst;
            }
          }
          a[f->var] = v;
          auto res = Eval(f->l, a);
          if (!res.ok()) {
            RestoreVar(a, f->var, saved);
            return res;
          }
          acc = exists ? Kleene::Or(acc, *res) : Kleene::And(acc, *res);
          if ((exists && acc == TV3::kT) || (!exists && acc == TV3::kF)) {
            break;
          }
        }
        RestoreVar(a, f->var, saved);
        return acc;
      }
    }
    return Status::Internal("unknown formula kind");
  }

  const std::vector<Value>& domain() const { return domain_; }

 private:
  static void RestoreVar(Assignment& a, const std::string& var,
                         const std::optional<Value>& saved) {
    if (saved.has_value()) {
      a[var] = *saved;
    } else {
      a.erase(var);
    }
  }

  MixedSemantics sem_;
  ScanResolver scans_;  // shared with the plan executor: copy-free scans
  const ExecContext* ctx_;
  const bool limited_;
  uint64_t check_acc_ = 0;  // quantifier iterations since the last check
  std::vector<Value> domain_;
  /// Lazily built per-relation unifiability indices for kUnif atoms; they
  /// reference rows of the ScanResolver-cached views in place.
  std::map<std::string, std::unique_ptr<UnifyIndex>> unify_;
};

}  // namespace

StatusOr<TV3> EvalFO(const FormulaPtr& f, const Database& db,
                     const Assignment& assignment,
                     const MixedSemantics& sem, const ExecContext& ctx) {
  FOEvaluator ev(db, sem, ctx);
  Assignment a = assignment;
  return ev.Eval(f, a);
}

StatusOr<bool> EvalBoolFO(const FormulaPtr& f, const Database& db,
                          const Assignment& assignment) {
  auto tv = EvalFO(f, db, assignment, MixedSemantics::Bool());
  if (!tv.ok()) return tv.status();
  // With kBool atoms every connective input is two-valued, except below ↑
  // which never produces u either; u is impossible.
  assert(*tv != TV3::kU);
  return *tv == TV3::kT;
}

StatusOr<Relation> AnswersWithTruthValue(const FormulaPtr& f,
                                         const Database& db,
                                         const MixedSemantics& sem,
                                         TV3 tau,
                                         const ExecContext& ctx) {
  std::vector<std::string> vars = FreeVariables(f);
  // One evaluator for the whole assignment sweep: the scan views and the
  // domain are resolved once, not once per assignment.
  FOEvaluator ev(db, sem, ctx);
  const std::vector<Value>& domain = ev.domain();

  Relation out(vars.empty() ? std::vector<std::string>{}
                            : std::vector<std::string>(vars.begin(),
                                                       vars.end()));
  Assignment a;
  // Iterate over all |domain|^|vars| assignments.
  if (vars.empty()) {
    auto tv = ev.Eval(f, a);
    if (!tv.ok()) return tv.status();
    if (*tv == tau) INCDB_RETURN_IF_ERROR(out.Insert(Tuple{}, 1));
    return out;
  }
  if (domain.empty()) return out;
  const bool limited = ctx.limited();
  std::vector<size_t> idx(vars.size(), 0);
  uint64_t since_check = 0;
  while (true) {
    // Each assignment evaluates the whole formula (itself quantifier-loop
    // checked); a modest cadence here bounds the latency between checks.
    if (limited && ++since_check >= 64) {
      since_check = 0;
      INCDB_RETURN_IF_ERROR(ctx.Check());
    }
    Tuple t;
    for (size_t i = 0; i < vars.size(); ++i) {
      a[vars[i]] = domain[idx[i]];
      t.Append(domain[idx[i]]);
    }
    auto tv = ev.Eval(f, a);
    if (!tv.ok()) return tv.status();
    if (*tv == tau) INCDB_RETURN_IF_ERROR(out.Insert(t, 1));
    size_t pos = vars.size();
    bool done = true;
    while (pos > 0) {
      --pos;
      if (++idx[pos] < domain.size()) {
        done = false;
        break;
      }
      idx[pos] = 0;
    }
    if (done) return out;
  }
}

}  // namespace incdb
