#ifndef INCDB_ALGEBRA_CONDITION_H_
#define INCDB_ALGEBRA_CONDITION_H_

/// \file condition.h
/// \brief Selection conditions θ of the paper's relational algebra (§2):
///
///   θ ::= const(A) | null(A) | A = B | A = c | A ≠ B | A ≠ c | θ∨θ | θ∧θ
///
/// There is no explicit negation; Negate() propagates ¬ through the
/// grammar, interchanging = with ≠ and const with null. The θ* translation
/// of §4.2 (Fig. 2) is here, and so are the atoms' truth values under the
/// three evaluation modes (naive two-valued, SQL 3VL, unification 3VL):
/// CondEqTV and CondOrderTV. The one condition evaluator, the columnar
/// program of eval/batch.h, calls them; so do the FO evaluator and the
/// tests' reference interpreter. This layer only resolves attribute names
/// (ResolveCondAttr), for every evaluator and validator alike.

#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/tuple.h"
#include "logic/truth.h"

namespace incdb {

struct Condition;
using CondPtr = std::shared_ptr<const Condition>;

enum class CondKind : uint8_t {
  kTrue,
  kFalse,
  kAnd,
  kOr,
  kEqAttrAttr,   ///< A = B
  kEqAttrConst,  ///< A = c
  kNeqAttrAttr,  ///< A ≠ B
  kNeqAttrConst, ///< A ≠ c
  kIsConst,      ///< const(A)
  kIsNull,       ///< null(A)
  // Order comparisons — the "Types of attributes" extension of §6: the
  // approximation schemes treat them like disequalities (θ* adds const
  // guards), SQL 3VL treats any null operand as u.
  kLtAttrAttr,   ///< A < B
  kLeAttrAttr,   ///< A ≤ B
  kLtAttrConst,  ///< A < c
  kLeAttrConst,  ///< A ≤ c
  kGtAttrConst,  ///< A > c
  kGeAttrConst,  ///< A ≥ c
};

/// Number of attribute names an atom of kind `k` reads: 2 for A op B (lhs
/// and rhs), 1 for A op c and const/null(A) (lhs), 0 for true, false and
/// the connectives.
size_t CondAttrOperands(CondKind k);

/// True for the kinds whose `constant` field is live: A op c.
bool KindHasConstant(CondKind k);

/// \brief Immutable selection-condition AST node.
struct Condition {
  CondKind kind;
  std::string lhs;  ///< Left attribute name (comparisons and tests).
  std::string rhs;  ///< Right attribute name (attr-attr comparisons).
  Value constant;   ///< Right constant (attr-const comparisons).
  CondPtr left, right;  ///< Children (kAnd / kOr).

  std::string ToString() const;
};

/// Constructors.
CondPtr CTrue();
CondPtr CFalse();
CondPtr CAnd(CondPtr a, CondPtr b);
CondPtr COr(CondPtr a, CondPtr b);
CondPtr CEq(std::string a, std::string b);
CondPtr CEqc(std::string a, Value c);
CondPtr CNeq(std::string a, std::string b);
CondPtr CNeqc(std::string a, Value c);
CondPtr CIsConst(std::string a);
CondPtr CIsNull(std::string a);
/// Order comparisons. Constants compare numerically across Int/Double and
/// lexicographically within String; comparing a string to a number falls
/// back to the (deterministic) kind order — schemas should not mix types
/// in one column.
CondPtr CLt(std::string a, std::string b);
CondPtr CLe(std::string a, std::string b);
CondPtr CLtc(std::string a, Value c);
CondPtr CLec(std::string a, Value c);
CondPtr CGtc(std::string a, Value c);
CondPtr CGec(std::string a, Value c);

/// Conjunction / disjunction of a list (empty ∧ = true, empty ∨ = false).
CondPtr CAndAll(const std::vector<CondPtr>& cs);
CondPtr COrAll(const std::vector<CondPtr>& cs);

/// ¬θ with negation propagated through the grammar (paper §2):
/// = ↔ ≠, const ↔ null, De Morgan over ∧/∨.
CondPtr Negate(const CondPtr& c);

/// The θ* translation of §4.2: each A ≠ c becomes (A ≠ c) ∧ const(A) and
/// each A ≠ B becomes (A ≠ B) ∧ const(A) ∧ const(B). Equalities and
/// const/null tests are unchanged.
CondPtr StarTranslate(const CondPtr& c);

/// All attribute names mentioned by the condition.
std::vector<std::string> CondAttrs(const CondPtr& c);

/// True iff any attr-const comparison of the condition carries a parameter
/// placeholder (Value::Param) instead of a constant.
bool CondHasParam(const CondPtr& c);

/// Number of parameter slots the condition needs: 1 + the largest
/// placeholder index mentioned, 0 when the condition is parameter-free.
size_t CondParamCount(const CondPtr& c);

/// Resolves one value against parameter bindings: constants pass through,
/// a placeholder ?i yields `params[i]`. The single authority for binding
/// errors (index out of range, binding not a constant — nulls and nested
/// parameters cannot be bound), shared by every substitution site
/// (condition/algebra/plan binding, the c-table evaluator).
StatusOr<Value> ResolveParamBinding(const Value& v,
                                    const std::vector<Value>& params);

/// Substitutes every parameter placeholder ?i by `params[i]` (via
/// ResolveParamBinding). Parameter-free subtrees are shared, not copied.
StatusOr<CondPtr> BindCondParams(const CondPtr& c,
                                 const std::vector<Value>& params);

/// True iff the condition contains a const(·) or null(·) test. Source
/// queries fed to the Fig. 2 approximation translations must not use
/// these: over the complete possible worlds that define cert⊥ they are
/// trivially true/false, while the naive evaluation of the translated
/// query would read them syntactically — the two readings diverge.
bool HasNullConstTest(const CondPtr& c);

/// True iff the condition contains an order comparison (<, ≤, >, ≥).
/// The *exact* certain-answer machinery rejects such queries: its finite
/// valuation-family argument needs genericity (invariance under constant
/// permutations), which order predicates break. The approximation schemes
/// remain sound for them (§6 "Types of attributes").
bool HasOrderComparison(const CondPtr& c);

/// Total order on constants used by the order comparisons: exact between
/// two Ints, numeric (as double) between an Int and a Double or two
/// Doubles, lexicographic within String, kind order across kinds.
/// Returns <0, 0, >0. Both values must be constants.
int CompareConst(const Value& a, const Value& b);

/// How atomic comparisons involving nulls are assigned truth values.
enum class CondMode {
  /// Two-valued, syntactic: ⊥_1 = ⊥_1 is t, ⊥_1 = ⊥_2 is f, ⊥ = c is f.
  /// This is the naive-evaluation reading (nulls as fresh constants, §4.1).
  kNaive,
  /// SQL's 3VL: any comparison with a null operand is u (even ⊥_1 = ⊥_1);
  /// const/null tests are always two-valued.
  kSql,
  /// The ⟦·⟧unif reading (§5.1, eq. 13b): ⊥_1 = ⊥_1 is t; a ≠ b is f only
  /// when both sides are constants; otherwise u.
  kUnif,
};

/// Truth value of the comparison a = b under each mode. The single
/// authority for equality-atom semantics: the columnar evaluator
/// (eval/batch.h) and the FO evaluator's equality atoms
/// (logic/fo_eval.cpp) both call it.
inline TV3 CondEqTV(const Value& a, const Value& b, CondMode mode) {
  switch (mode) {
    case CondMode::kNaive:
      return FromBool(a == b);
    case CondMode::kSql:
      if (a.is_null() || b.is_null()) return TV3::kU;
      return FromBool(a == b);
    case CondMode::kUnif:
      if (a == b) return TV3::kT;  // includes ⊥_i = ⊥_i
      if (a.is_const() && b.is_const()) return TV3::kF;
      return TV3::kU;
  }
  return TV3::kU;
}

/// Truth value of an order comparison under each mode. `strict` selects
/// < vs ≤. Naive evaluation has no meaningful order on "fresh constants",
/// so a null operand yields f there (the conservative reading of §6);
/// SQL/unif yield u. Shared like CondEqTV.
inline TV3 CondOrderTV(const Value& a, const Value& b, bool strict,
                       CondMode mode) {
  if (a.is_null() || b.is_null()) {
    return mode == CondMode::kNaive ? TV3::kF : TV3::kU;
  }
  if (a.kind() == ValueKind::kInt && b.kind() == ValueKind::kInt) {
    // The common case inline, and exact: int64 values past 2^53 collapse
    // when compared as doubles.
    const int64_t x = a.as_int();
    const int64_t y = b.as_int();
    return FromBool(strict ? x < y : x <= y);
  }
  int cmp = CompareConst(a, b);
  return FromBool(strict ? cmp < 0 : cmp <= 0);
}

/// Position of attribute `name` in the schema `attrs`; NotFound when the
/// condition names an attribute the schema lacks. The one name resolver
/// of conditions: OutputAttrs, the columnar program's compile step and
/// the c-table evaluator all call it.
StatusOr<size_t> ResolveCondAttr(const std::vector<std::string>& attrs,
                                 const std::string& name);

/// OK iff every attribute `c` names resolves against `attrs`.
Status CheckCondAttrs(const CondPtr& c, const std::vector<std::string>& attrs);

}  // namespace incdb

#endif  // INCDB_ALGEBRA_CONDITION_H_
