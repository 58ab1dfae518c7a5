#include "algebra/condition.h"

#include <algorithm>
#include <cassert>
#include <set>

#include "core/relation.h"

namespace incdb {

namespace {
CondPtr Make(CondKind kind, std::string lhs = {}, std::string rhs = {},
             Value constant = Value::Int(0), CondPtr left = nullptr,
             CondPtr right = nullptr) {
  auto c = std::make_shared<Condition>();
  c->kind = kind;
  c->lhs = std::move(lhs);
  c->rhs = std::move(rhs);
  c->constant = std::move(constant);
  c->left = std::move(left);
  c->right = std::move(right);
  return c;
}
}  // namespace

CondPtr CTrue() { return Make(CondKind::kTrue); }
CondPtr CFalse() { return Make(CondKind::kFalse); }
CondPtr CAnd(CondPtr a, CondPtr b) {
  return Make(CondKind::kAnd, {}, {}, Value::Int(0), std::move(a),
              std::move(b));
}
CondPtr COr(CondPtr a, CondPtr b) {
  return Make(CondKind::kOr, {}, {}, Value::Int(0), std::move(a),
              std::move(b));
}
CondPtr CEq(std::string a, std::string b) {
  return Make(CondKind::kEqAttrAttr, std::move(a), std::move(b));
}
CondPtr CEqc(std::string a, Value c) {
  return Make(CondKind::kEqAttrConst, std::move(a), {}, std::move(c));
}
CondPtr CNeq(std::string a, std::string b) {
  return Make(CondKind::kNeqAttrAttr, std::move(a), std::move(b));
}
CondPtr CNeqc(std::string a, Value c) {
  return Make(CondKind::kNeqAttrConst, std::move(a), {}, std::move(c));
}
CondPtr CIsConst(std::string a) {
  return Make(CondKind::kIsConst, std::move(a));
}
CondPtr CIsNull(std::string a) { return Make(CondKind::kIsNull, std::move(a)); }

CondPtr CLt(std::string a, std::string b) {
  return Make(CondKind::kLtAttrAttr, std::move(a), std::move(b));
}
CondPtr CLe(std::string a, std::string b) {
  return Make(CondKind::kLeAttrAttr, std::move(a), std::move(b));
}
CondPtr CLtc(std::string a, Value c) {
  return Make(CondKind::kLtAttrConst, std::move(a), {}, std::move(c));
}
CondPtr CLec(std::string a, Value c) {
  return Make(CondKind::kLeAttrConst, std::move(a), {}, std::move(c));
}
CondPtr CGtc(std::string a, Value c) {
  return Make(CondKind::kGtAttrConst, std::move(a), {}, std::move(c));
}
CondPtr CGec(std::string a, Value c) {
  return Make(CondKind::kGeAttrConst, std::move(a), {}, std::move(c));
}

CondPtr CAndAll(const std::vector<CondPtr>& cs) {
  if (cs.empty()) return CTrue();
  CondPtr out = cs[0];
  for (size_t i = 1; i < cs.size(); ++i) out = CAnd(out, cs[i]);
  return out;
}

CondPtr COrAll(const std::vector<CondPtr>& cs) {
  if (cs.empty()) return CFalse();
  CondPtr out = cs[0];
  for (size_t i = 1; i < cs.size(); ++i) out = COr(out, cs[i]);
  return out;
}

CondPtr Negate(const CondPtr& c) {
  switch (c->kind) {
    case CondKind::kTrue:
      return CFalse();
    case CondKind::kFalse:
      return CTrue();
    case CondKind::kAnd:
      return COr(Negate(c->left), Negate(c->right));
    case CondKind::kOr:
      return CAnd(Negate(c->left), Negate(c->right));
    case CondKind::kEqAttrAttr:
      return CNeq(c->lhs, c->rhs);
    case CondKind::kNeqAttrAttr:
      return CEq(c->lhs, c->rhs);
    case CondKind::kEqAttrConst:
      return CNeqc(c->lhs, c->constant);
    case CondKind::kNeqAttrConst:
      return CEqc(c->lhs, c->constant);
    case CondKind::kIsConst:
      return CIsNull(c->lhs);
    case CondKind::kIsNull:
      return CIsConst(c->lhs);
    // ¬(A < B) = B ≤ A, etc.
    case CondKind::kLtAttrAttr:
      return CLe(c->rhs, c->lhs);
    case CondKind::kLeAttrAttr:
      return CLt(c->rhs, c->lhs);
    case CondKind::kLtAttrConst:
      return CGec(c->lhs, c->constant);
    case CondKind::kLeAttrConst:
      return CGtc(c->lhs, c->constant);
    case CondKind::kGtAttrConst:
      return CLec(c->lhs, c->constant);
    case CondKind::kGeAttrConst:
      return CLtc(c->lhs, c->constant);
  }
  assert(false);
  return CFalse();
}

CondPtr StarTranslate(const CondPtr& c) {
  switch (c->kind) {
    case CondKind::kAnd:
      return CAnd(StarTranslate(c->left), StarTranslate(c->right));
    case CondKind::kOr:
      return COr(StarTranslate(c->left), StarTranslate(c->right));
    case CondKind::kNeqAttrConst:
      return CAnd(CNeqc(c->lhs, c->constant), CIsConst(c->lhs));
    case CondKind::kNeqAttrAttr:
      return CAnd(CNeq(c->lhs, c->rhs),
                  CAnd(CIsConst(c->lhs), CIsConst(c->rhs)));
    // §6 "Types of attributes": order comparisons are guarded like
    // disequalities — certain only on constants.
    case CondKind::kLtAttrAttr:
    case CondKind::kLeAttrAttr:
      return CAnd(c, CAnd(CIsConst(c->lhs), CIsConst(c->rhs)));
    case CondKind::kLtAttrConst:
    case CondKind::kLeAttrConst:
    case CondKind::kGtAttrConst:
    case CondKind::kGeAttrConst:
      return CAnd(c, CIsConst(c->lhs));
    default:
      return c;
  }
}

size_t CondAttrOperands(CondKind k) {
  switch (k) {
    case CondKind::kEqAttrAttr:
    case CondKind::kNeqAttrAttr:
    case CondKind::kLtAttrAttr:
    case CondKind::kLeAttrAttr:
      return 2;
    case CondKind::kTrue:
    case CondKind::kFalse:
    case CondKind::kAnd:
    case CondKind::kOr:
      return 0;
    default:
      return 1;
  }
}

bool KindHasConstant(CondKind k) {
  switch (k) {
    case CondKind::kEqAttrConst:
    case CondKind::kNeqAttrConst:
    case CondKind::kLtAttrConst:
    case CondKind::kLeAttrConst:
    case CondKind::kGtAttrConst:
    case CondKind::kGeAttrConst:
      return true;
    default:
      return false;
  }
}

namespace {
void CollectAttrs(const CondPtr& c, std::set<std::string>* out) {
  if (c->kind == CondKind::kAnd || c->kind == CondKind::kOr) {
    CollectAttrs(c->left, out);
    CollectAttrs(c->right, out);
    return;
  }
  const size_t operands = CondAttrOperands(c->kind);
  if (operands >= 1) out->insert(c->lhs);
  if (operands == 2) out->insert(c->rhs);
}
}  // namespace

std::vector<std::string> CondAttrs(const CondPtr& c) {
  std::set<std::string> s;
  CollectAttrs(c, &s);
  return std::vector<std::string>(s.begin(), s.end());
}

StatusOr<size_t> ResolveCondAttr(const std::vector<std::string>& attrs,
                                 const std::string& name) {
  const size_t i = IndexOf(attrs, name);
  if (i == attrs.size()) {
    return Status::NotFound("condition references unknown attribute " + name);
  }
  return i;
}

Status CheckCondAttrs(const CondPtr& c,
                      const std::vector<std::string>& attrs) {
  for (const std::string& a : CondAttrs(c)) {
    auto i = ResolveCondAttr(attrs, a);
    if (!i.ok()) return i.status();
  }
  return Status::OK();
}

bool CondHasParam(const CondPtr& c) {
  if (c->kind == CondKind::kAnd || c->kind == CondKind::kOr) {
    return CondHasParam(c->left) || CondHasParam(c->right);
  }
  return KindHasConstant(c->kind) && c->constant.is_param();
}

size_t CondParamCount(const CondPtr& c) {
  if (c->kind == CondKind::kAnd || c->kind == CondKind::kOr) {
    return std::max(CondParamCount(c->left), CondParamCount(c->right));
  }
  if (KindHasConstant(c->kind) && c->constant.is_param()) {
    return static_cast<size_t>(c->constant.param_index()) + 1;
  }
  return 0;
}

StatusOr<Value> ResolveParamBinding(const Value& v,
                                    const std::vector<Value>& params) {
  if (!v.is_param()) return v;
  const uint32_t idx = v.param_index();
  if (idx >= params.size()) {
    return Status::InvalidArgument(
        "unbound parameter ?" + std::to_string(idx) + " (got " +
        std::to_string(params.size()) + " binding(s))");
  }
  if (!params[idx].is_const()) {
    return Status::InvalidArgument(
        "parameter ?" + std::to_string(idx) +
        " must be bound to a constant, got " + params[idx].ToString());
  }
  return params[idx];
}

StatusOr<CondPtr> BindCondParams(const CondPtr& c,
                                 const std::vector<Value>& params) {
  if (c->kind == CondKind::kAnd || c->kind == CondKind::kOr) {
    if (!CondHasParam(c)) return c;
    auto l = BindCondParams(c->left, params);
    if (!l.ok()) return l;
    auto r = BindCondParams(c->right, params);
    if (!r.ok()) return r;
    return c->kind == CondKind::kAnd ? CAnd(*l, *r) : COr(*l, *r);
  }
  if (!KindHasConstant(c->kind) || !c->constant.is_param()) return c;
  auto bound = ResolveParamBinding(c->constant, params);
  if (!bound.ok()) return bound.status();
  auto out = std::make_shared<Condition>(*c);
  out->constant = *bound;
  return CondPtr(out);
}

bool HasNullConstTest(const CondPtr& c) {
  switch (c->kind) {
    case CondKind::kAnd:
    case CondKind::kOr:
      return HasNullConstTest(c->left) || HasNullConstTest(c->right);
    case CondKind::kIsConst:
    case CondKind::kIsNull:
      return true;
    default:
      return false;
  }
}

bool HasOrderComparison(const CondPtr& c) {
  switch (c->kind) {
    case CondKind::kAnd:
    case CondKind::kOr:
      return HasOrderComparison(c->left) || HasOrderComparison(c->right);
    case CondKind::kLtAttrAttr:
    case CondKind::kLeAttrAttr:
    case CondKind::kLtAttrConst:
    case CondKind::kLeAttrConst:
    case CondKind::kGtAttrConst:
    case CondKind::kGeAttrConst:
      return true;
    default:
      return false;
  }
}

int CompareConst(const Value& a, const Value& b) {
  assert(a.is_const() && b.is_const());
  if (a.kind() == ValueKind::kInt && b.kind() == ValueKind::kInt) {
    return a.as_int() < b.as_int() ? -1 : (b.as_int() < a.as_int() ? 1 : 0);
  }
  auto numeric = [](const Value& v) {
    return v.kind() == ValueKind::kInt || v.kind() == ValueKind::kDouble;
  };
  if (numeric(a) && numeric(b)) {
    double x = a.kind() == ValueKind::kInt ? double(a.as_int()) : a.as_double();
    double y = b.kind() == ValueKind::kInt ? double(b.as_int()) : b.as_double();
    return x < y ? -1 : (y < x ? 1 : 0);
  }
  if (a == b) return 0;
  return a < b ? -1 : 1;
}

std::string Condition::ToString() const {
  switch (kind) {
    case CondKind::kTrue:
      return "true";
    case CondKind::kFalse:
      return "false";
    case CondKind::kAnd:
      return "(" + left->ToString() + " ∧ " + right->ToString() + ")";
    case CondKind::kOr:
      return "(" + left->ToString() + " ∨ " + right->ToString() + ")";
    case CondKind::kEqAttrAttr:
      return lhs + " = " + rhs;
    case CondKind::kNeqAttrAttr:
      return lhs + " ≠ " + rhs;
    case CondKind::kEqAttrConst:
      return lhs + " = " + constant.ToString();
    case CondKind::kNeqAttrConst:
      return lhs + " ≠ " + constant.ToString();
    case CondKind::kIsConst:
      return "const(" + lhs + ")";
    case CondKind::kIsNull:
      return "null(" + lhs + ")";
    case CondKind::kLtAttrAttr:
      return lhs + " < " + rhs;
    case CondKind::kLeAttrAttr:
      return lhs + " ≤ " + rhs;
    case CondKind::kLtAttrConst:
      return lhs + " < " + constant.ToString();
    case CondKind::kLeAttrConst:
      return lhs + " ≤ " + constant.ToString();
    case CondKind::kGtAttrConst:
      return lhs + " > " + constant.ToString();
    case CondKind::kGeAttrConst:
      return lhs + " ≥ " + constant.ToString();
  }
  return "?";
}

}  // namespace incdb
