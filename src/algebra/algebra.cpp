#include "algebra/algebra.h"

#include <algorithm>
#include <cassert>
#include <set>

namespace incdb {

namespace {

Status CheckSameArity(const std::vector<std::string>& l,
                      const std::vector<std::string>& r, const char* op) {
  if (l.size() != r.size()) {
    return Status::InvalidArgument(std::string(op) + ": arity mismatch (" +
                                   std::to_string(l.size()) + " vs " +
                                   std::to_string(r.size()) + ")");
  }
  return Status::OK();
}

bool HasNeqOrNullTest(const CondPtr& c) {
  switch (c->kind) {
    case CondKind::kAnd:
    case CondKind::kOr:
      return HasNeqOrNullTest(c->left) || HasNeqOrNullTest(c->right);
    case CondKind::kNeqAttrAttr:
    case CondKind::kNeqAttrConst:
    case CondKind::kIsNull:
      return true;
    default:
      // Order comparisons behave like disequalities for fragment
      // classification: not preserved under homomorphisms.
      return HasOrderComparison(c) && c->kind != CondKind::kAnd;
  }
}

void CollectConstants(const CondPtr& c, std::vector<Value>* out) {
  switch (c->kind) {
    case CondKind::kAnd:
    case CondKind::kOr:
      CollectConstants(c->left, out);
      CollectConstants(c->right, out);
      return;
    case CondKind::kEqAttrConst:
    case CondKind::kNeqAttrConst:
      // Parameter placeholders are not constants (and must not leak into
      // Dom extras of the approximation translations).
      if (c->constant.is_const()) out->push_back(c->constant);
      return;
    default:
      return;
  }
}

}  // namespace

Status CheckInColumns(const AlgPtr& q) {
  if (q->attrs.size() != q->attrs2.size() || q->attrs.empty()) {
    return Status::InvalidArgument(
        "IN predicate: compare column lists must be non-empty and of equal "
        "length");
  }
  return Status::OK();
}

StatusOr<CondPtr> InSemijoinCond(const AlgPtr& q, bool sql) {
  INCDB_RETURN_IF_ERROR(CheckInColumns(q));
  const bool maybe = sql && q->kind == OpKind::kNotIn;
  CondPtr cond = q->cond;
  for (size_t i = 0; i < q->attrs.size(); ++i) {
    const std::string& x = q->attrs[i];
    const std::string& y = q->attrs2[i];
    CondPtr cmp = CEq(x, y);
    if (maybe) cmp = COr(cmp, COr(CIsNull(x), CIsNull(y)));
    cond = CAnd(cond, cmp);
  }
  return cond;
}

AlgPtr WithChildren(const AlgPtr& q, AlgPtr left, AlgPtr right) {
  if (left == q->left && right == q->right) return q;
  auto out = std::make_shared<Algebra>(*q);
  out->left = std::move(left);
  out->right = std::move(right);
  return out;
}

StatusOr<std::vector<std::string>> OutputAttrs(const AlgPtr& q,
                                               const Database& db) {
  switch (q->kind) {
    case OpKind::kScan: {
      const Relation* rel = db.Find(q->rel_name);
      if (rel == nullptr) {
        return Status::NotFound("no relation named " + q->rel_name);
      }
      return rel->attrs();
    }
    case OpKind::kSelect: {
      auto in = OutputAttrs(q->left, db);
      if (!in.ok()) return in;
      INCDB_RETURN_IF_ERROR(CheckCondAttrs(q->cond, *in));
      return in;
    }
    case OpKind::kProject: {
      auto in = OutputAttrs(q->left, db);
      if (!in.ok()) return in;
      for (const std::string& a : q->attrs) {
        if (std::find(in->begin(), in->end(), a) == in->end()) {
          return Status::NotFound("projection attribute " + a +
                                  " not in input");
        }
      }
      return q->attrs;
    }
    case OpKind::kRename: {
      auto in = OutputAttrs(q->left, db);
      if (!in.ok()) return in;
      if (q->attrs.size() != in->size()) {
        return Status::InvalidArgument("rename: arity mismatch");
      }
      return q->attrs;
    }
    case OpKind::kProduct:
    case OpKind::kJoin: {
      auto l = OutputAttrs(q->left, db);
      if (!l.ok()) return l;
      auto r = OutputAttrs(q->right, db);
      if (!r.ok()) return r;
      std::set<std::string> seen(l->begin(), l->end());
      for (const std::string& a : *r) {
        if (seen.count(a)) {
          return Status::InvalidArgument(
              "product: attribute " + a + " appears on both sides (rename)");
        }
      }
      std::vector<std::string> out = *l;
      out.insert(out.end(), r->begin(), r->end());
      if (q->kind == OpKind::kJoin) {
        INCDB_RETURN_IF_ERROR(CheckCondAttrs(q->cond, out));
      }
      return out;
    }
    case OpKind::kUnion:
    case OpKind::kDifference:
    case OpKind::kIntersect:
    case OpKind::kAntijoinUnify: {
      auto l = OutputAttrs(q->left, db);
      if (!l.ok()) return l;
      auto r = OutputAttrs(q->right, db);
      if (!r.ok()) return r;
      INCDB_RETURN_IF_ERROR(CheckSameArity(*l, *r, "set operation"));
      return l;
    }
    case OpKind::kDivision: {
      auto l = OutputAttrs(q->left, db);
      if (!l.ok()) return l;
      auto r = OutputAttrs(q->right, db);
      if (!r.ok()) return r;
      // attrs(Q2) must be a subset of attrs(Q1); result = attrs(Q1) \ attrs(Q2).
      std::vector<std::string> out;
      for (const std::string& a : *l) {
        if (std::find(r->begin(), r->end(), a) == r->end()) out.push_back(a);
      }
      for (const std::string& a : *r) {
        if (std::find(l->begin(), l->end(), a) == l->end()) {
          return Status::InvalidArgument("division: divisor attribute " + a +
                                         " not in dividend");
        }
      }
      if (out.empty()) {
        return Status::InvalidArgument(
            "division: dividend must have attributes beyond the divisor");
      }
      return out;
    }
    case OpKind::kDom: {
      if (q->attrs.size() != q->dom_arity) {
        return Status::Internal("Dom: attribute list does not match arity");
      }
      return q->attrs;
    }
    case OpKind::kSemijoin:
    case OpKind::kAntijoin: {
      auto l = OutputAttrs(q->left, db);
      if (!l.ok()) return l;
      auto r = OutputAttrs(q->right, db);
      if (!r.ok()) return r;
      std::vector<std::string> joint = *l;
      joint.insert(joint.end(), r->begin(), r->end());
      INCDB_RETURN_IF_ERROR(CheckCondAttrs(q->cond, joint));
      return l;
    }
    case OpKind::kIn:
    case OpKind::kNotIn: {
      auto l = OutputAttrs(q->left, db);
      if (!l.ok()) return l;
      auto r = OutputAttrs(q->right, db);
      if (!r.ok()) return r;
      INCDB_RETURN_IF_ERROR(CheckInColumns(q));
      for (const std::string& a : q->attrs) {
        if (std::find(l->begin(), l->end(), a) == l->end()) {
          return Status::NotFound("IN: left column " + a + " not in input");
        }
      }
      for (const std::string& a : q->attrs2) {
        if (std::find(r->begin(), r->end(), a) == r->end()) {
          return Status::NotFound("IN: right column " + a + " not in input");
        }
      }
      std::vector<std::string> joint = *l;
      for (const std::string& a : *r) {
        if (std::find(l->begin(), l->end(), a) != l->end()) {
          return Status::InvalidArgument(
              "IN: attribute " + a + " appears on both sides (rename)");
        }
        joint.push_back(a);
      }
      INCDB_RETURN_IF_ERROR(CheckCondAttrs(q->cond, joint));
      return l;
    }
    case OpKind::kDistinct:
      return OutputAttrs(q->left, db);
  }
  return Status::Internal("unknown operator");
}

std::string Algebra::ToString() const {
  auto list = [](const std::vector<std::string>& v) {
    std::string s;
    for (size_t i = 0; i < v.size(); ++i) {
      if (i) s += ",";
      s += v[i];
    }
    return s;
  };
  switch (kind) {
    case OpKind::kScan:
      return rel_name;
    case OpKind::kSelect:
      return "σ[" + cond->ToString() + "](" + left->ToString() + ")";
    case OpKind::kProject:
      return "π{" + list(attrs) + "}(" + left->ToString() + ")";
    case OpKind::kRename:
      return "ρ{" + list(attrs) + "}(" + left->ToString() + ")";
    case OpKind::kProduct:
      return "(" + left->ToString() + " × " + right->ToString() + ")";
    case OpKind::kUnion:
      return "(" + left->ToString() + " ∪ " + right->ToString() + ")";
    case OpKind::kDifference:
      return "(" + left->ToString() + " − " + right->ToString() + ")";
    case OpKind::kIntersect:
      return "(" + left->ToString() + " ∩ " + right->ToString() + ")";
    case OpKind::kDivision:
      return "(" + left->ToString() + " ÷ " + right->ToString() + ")";
    case OpKind::kAntijoinUnify:
      return "(" + left->ToString() + " ⋉⇑ " + right->ToString() + ")";
    case OpKind::kDom:
      return "Dom^" + std::to_string(dom_arity);
    case OpKind::kJoin:
      return "(" + left->ToString() + " ⋈[" + cond->ToString() + "] " +
             right->ToString() + ")";
    case OpKind::kSemijoin:
      return "(" + left->ToString() + " ⋉[" + cond->ToString() + "] " +
             right->ToString() + ")";
    case OpKind::kAntijoin:
      return "(" + left->ToString() + " ▷[" + cond->ToString() + "] " +
             right->ToString() + ")";
    case OpKind::kIn:
      return "(" + left->ToString() + " IN{" + list(attrs) + "≡" +
             list(attrs2) + "} " + right->ToString() + ")";
    case OpKind::kNotIn:
      return "(" + left->ToString() + " NOT-IN{" + list(attrs) + "≡" +
             list(attrs2) + "} " + right->ToString() + ")";
    case OpKind::kDistinct:
      return "δ(" + left->ToString() + ")";
  }
  return "?";
}

bool IsCoreGrammar(const AlgPtr& q) {
  switch (q->kind) {
    case OpKind::kScan:
      return true;
    case OpKind::kSelect:
    case OpKind::kProject:
    case OpKind::kRename:
      return IsCoreGrammar(q->left);
    case OpKind::kProduct:
    case OpKind::kUnion:
    case OpKind::kDifference:
    case OpKind::kIntersect:
      return IsCoreGrammar(q->left) && IsCoreGrammar(q->right);
    default:
      return false;
  }
}

bool IsPositive(const AlgPtr& q) {
  switch (q->kind) {
    case OpKind::kScan:
      return true;
    case OpKind::kSelect:
      return !HasNeqOrNullTest(q->cond) && IsPositive(q->left);
    case OpKind::kProject:
    case OpKind::kRename:
      return IsPositive(q->left);
    case OpKind::kProduct:
    case OpKind::kUnion:
      return IsPositive(q->left) && IsPositive(q->right);
    case OpKind::kJoin:
    case OpKind::kSemijoin:
    case OpKind::kIn:
      return !HasNeqOrNullTest(q->cond) && IsPositive(q->left) &&
             IsPositive(q->right);
    case OpKind::kDistinct:
      return IsPositive(q->left);
    default:
      return false;
  }
}

bool IsPosForallG(const AlgPtr& q) {
  switch (q->kind) {
    case OpKind::kScan:
      return true;
    case OpKind::kSelect:
      return !HasNeqOrNullTest(q->cond) && IsPosForallG(q->left);
    case OpKind::kProject:
    case OpKind::kRename:
      return IsPosForallG(q->left);
    case OpKind::kProduct:
    case OpKind::kUnion:
      return IsPosForallG(q->left) && IsPosForallG(q->right);
    case OpKind::kDivision:
      // Division by a *base relation* (or equality) is the algebraic form of
      // the universal guard; we allow division by any Pos∀G subquery whose
      // root is a scan, matching the paper's "division by a relation in the
      // schema".
      return IsPosForallG(q->left) && q->right->kind == OpKind::kScan;
    default:
      return false;
  }
}

std::vector<Value> QueryConstants(const AlgPtr& q) {
  std::vector<Value> out;
  std::vector<const Algebra*> stack = {q.get()};
  while (!stack.empty()) {
    const Algebra* node = stack.back();
    stack.pop_back();
    if (node->cond) CollectConstants(node->cond, &out);
    for (const Value& v : node->dom_extra) out.push_back(v);
    if (node->left) stack.push_back(node->left.get());
    if (node->right) stack.push_back(node->right.get());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

size_t ParamCount(const AlgPtr& q) {
  size_t count = 0;
  std::vector<const Algebra*> stack = {q.get()};
  while (!stack.empty()) {
    const Algebra* node = stack.back();
    stack.pop_back();
    if (node->cond) count = std::max(count, CondParamCount(node->cond));
    for (const Value& v : node->dom_extra) {
      if (v.is_param()) {
        count = std::max(count, static_cast<size_t>(v.param_index()) + 1);
      }
    }
    if (node->left) stack.push_back(node->left.get());
    if (node->right) stack.push_back(node->right.get());
  }
  return count;
}

StatusOr<AlgPtr> BindParams(const AlgPtr& q, const std::vector<Value>& params) {
  auto out = MapChildren(
      q, [&params](const AlgPtr& c) { return BindParams(c, params); });
  if (!out.ok()) return out;
  bool dom_param = false;
  for (const Value& v : q->dom_extra) dom_param |= v.is_param();
  const bool cond_param = q->cond && CondHasParam(q->cond);
  if (!cond_param && !dom_param) return out;
  auto bound = std::make_shared<Algebra>(**out);
  if (cond_param) {
    auto cond = BindCondParams(q->cond, params);
    if (!cond.ok()) return cond.status();
    bound->cond = *cond;
  }
  for (Value& v : bound->dom_extra) {
    auto value = ResolveParamBinding(v, params);
    if (!value.ok()) return value.status();
    v = *value;
  }
  return AlgPtr(bound);
}

bool QueryHasOrderComparison(const AlgPtr& q) {
  if (q->cond && HasOrderComparison(q->cond)) return true;
  if (q->left && QueryHasOrderComparison(q->left)) return true;
  if (q->right && QueryHasOrderComparison(q->right)) return true;
  return false;
}

std::vector<std::string> ScannedRelations(const AlgPtr& q) {
  std::set<std::string> s;
  std::vector<const Algebra*> stack = {q.get()};
  while (!stack.empty()) {
    const Algebra* node = stack.back();
    stack.pop_back();
    if (node->kind == OpKind::kScan) s.insert(node->rel_name);
    if (node->left) stack.push_back(node->left.get());
    if (node->right) stack.push_back(node->right.get());
  }
  return std::vector<std::string>(s.begin(), s.end());
}

}  // namespace incdb
