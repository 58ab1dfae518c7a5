#ifndef INCDB_ALGEBRA_ALGEBRA_H_
#define INCDB_ALGEBRA_ALGEBRA_H_

/// \file algebra.h
/// \brief Relational algebra AST (paper §2), extended with the operators
/// the surveyed results need:
///
///  * the core grammar σ, π, ×, ∪, − over named relations;
///  * intersection ∩ (emitted by the Fig. 2(a) translation rules);
///  * division ÷ (the Pos∀G fragment of Thm. 4.4);
///  * the unification anti-semijoin ⋉⇑ of Fig. 2 (r̄ survives iff no s̄ on
///    the right unifies with it);
///  * Dom^k, the k-fold product of the active domain (Fig. 2(a));
///  * sugar operators (join/semijoin/antijoin with conditions, [NOT] IN,
///    δ) that Desugar() rewrites into the core grammar. The Fig. 2(b)
///    translation keeps ⋉ and ▷: it has direct rules for them
///    (approx/approx.h).
///
/// Nodes are immutable and shared; building twice the same subtree is fine.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algebra/condition.h"
#include "core/database.h"
#include "core/status.h"

namespace incdb {

struct Algebra;
using AlgPtr = std::shared_ptr<const Algebra>;

enum class OpKind : uint8_t {
  kScan,          ///< Base relation R.
  kSelect,        ///< σ_θ(Q).
  kProject,       ///< π_α(Q), α a list of attribute names of Q.
  kRename,        ///< ρ: renames all attributes positionally.
  kProduct,       ///< Q1 × Q2 (attribute names must be disjoint).
  kUnion,         ///< Q1 ∪ Q2 (same arity; left names win).
  kDifference,    ///< Q1 − Q2 (same arity).
  kIntersect,     ///< Q1 ∩ Q2 (same arity).
  kDivision,      ///< Q1 ÷ Q2 (attrs(Q2) ⊆ attrs(Q1)).
  kAntijoinUnify, ///< Q1 ⋉⇑ Q2 (same arity; keep r̄ with no unifiable s̄).
  kDom,           ///< Dom^k over adom(D) ∪ extra constants.
  // ---- sugar (removed by Desugar) ----
  kJoin,          ///< σ_θ(Q1 × Q2).
  kSemijoin,      ///< π_{attrs(Q1)}(σ_θ(Q1 × Q2)), deduplicated.
  kAntijoin,      ///< Q1 − Semijoin(Q1, Q2, θ).
  kIn,            ///< SQL  x̄ IN (Q2 WHERE θ)  — see builder.h InPredicate.
  kNotIn,         ///< SQL  x̄ NOT IN (Q2 WHERE θ): under EvalSql this keeps
                  ///< a row only when the comparison with *every* right row
                  ///< is certainly false (SQL's NOT IN null semantics).
  kDistinct,      ///< SELECT DISTINCT: no-op under set semantics, collapses
                  ///< multiplicities under bags.
};

/// \brief One relational algebra operator.
struct Algebra {
  OpKind kind;
  std::string rel_name;              ///< kScan.
  CondPtr cond;                      ///< kSelect / kJoin / kSemijoin / kAntijoin / kIn / kNotIn.
  std::vector<std::string> attrs;    ///< kProject (names) / kRename (new names) / kDom (names) / kIn,kNotIn (left compare columns).
  std::vector<std::string> attrs2;   ///< kIn / kNotIn: right compare columns.
  size_t dom_arity = 0;              ///< kDom.
  std::vector<Value> dom_extra;      ///< kDom: query constants to include.
  AlgPtr left, right;

  /// Single-line rendering, e.g. "π_{oid}(Orders − Payments)".
  std::string ToString() const;
};

/// Output attribute names of `q` against the schemas in `db`.
/// Validates the whole subtree (arity agreement, disjointness for ×, ...).
StatusOr<std::vector<std::string>> OutputAttrs(const AlgPtr& q,
                                               const Database& db);

/// The compare-column check of a kIn / kNotIn node: kInvalidArgument
/// unless its left and right lists are non-empty and of equal length.
Status CheckInColumns(const AlgPtr& q);

/// The condition of the ⋉ (kIn) or ▷ (kNotIn) that x̄ [NOT] IN (Q2 WHERE θ)
/// is: θ ∧ ⋀ᵢ cmpᵢ over the compare columns xᵢ, yᵢ, where cmpᵢ is xᵢ = yᵢ.
/// Under SQL (`sql`) NOT IN drops a row unless every comparison is
/// certainly false, so there cmpᵢ is xᵢ = yᵢ ∨ null(xᵢ) ∨ null(yᵢ), the θ?
/// of Fig. 2(b). The one IN-to-⋉/▷ rule, for DesugarToSemijoins (naive)
/// and the plan compiler. Fails as CheckInColumns does.
StatusOr<CondPtr> InSemijoinCond(const AlgPtr& q, bool sql);

/// A copy of `q` over the children `left` and `right`, every other field
/// kept — or `q` itself when both are the children it already has. The one
/// place a rewrite rebuilds a node as the same operator.
AlgPtr WithChildren(const AlgPtr& q, AlgPtr left, AlgPtr right);

/// The structural step of every algebra rewrite: rewrites each child of
/// `q` with `f` (left first, stopping at the first error) and rebuilds `q`
/// through WithChildren, so a subtree `f` leaves unchanged stays shared.
template <typename F>
StatusOr<AlgPtr> MapChildren(const AlgPtr& q, F&& f) {
  AlgPtr left, right;
  if (q->left) {
    StatusOr<AlgPtr> l = f(q->left);
    if (!l.ok()) return l;
    left = std::move(l).value();
  }
  if (q->right) {
    StatusOr<AlgPtr> r = f(q->right);
    if (!r.ok()) return r;
    right = std::move(r).value();
  }
  return WithChildren(q, std::move(left), std::move(right));
}

/// Rewrites the sugar operators (⋈, ⋉, ▷, [NOT] IN, δ) into the core
/// grammar: DesugarToSemijoins, then δ is dropped, each ⋉θ becomes
/// π_{attrs(Q1)}(σθ(Q1 × Q2)) and each ▷θ subtracts that from Q1. Every
/// other operator only has its children desugared, so a sugar-free subtree
/// comes back as the same pointer. Needs the database to resolve schemas
/// (the semijoin expansion projects back onto the left attributes). Note:
/// the expansion is faithful under *set* semantics; the evaluators also
/// execute the sugar operators natively with EXISTS-style multiplicity
/// handling for bags.
StatusOr<AlgPtr> Desugar(const AlgPtr& q, const Database& db);

/// The first half of Desugar, and the form the Fig. 2(b) translation reads
/// (PrepareForTranslation): ⋈θ becomes σθ(Q1 × Q2) and [NOT] IN becomes
/// ⋉/▷ on θ ∧ (lcols = rcols), its naive reading; ⋉θ, ▷θ and δ stay
/// (the bag bracket of Theorem 4.8 needs δ). Sugar-free subtrees come back
/// as the same pointer.
StatusOr<AlgPtr> DesugarToSemijoins(const AlgPtr& q);

/// True iff the subtree uses no sugar: only the paper's core grammar
/// {scan, σ, π, ρ, ×, ∪, −, ∩} — what Desugar returns and the c-table
/// evaluator walks. (The Fig. 2 translations also read ⋉ and ▷.)
bool IsCoreGrammar(const AlgPtr& q);

/// True iff the subtree is *positive* relational algebra extended with
/// division: {scan, σ (no ≠/null), π, ρ, ×, ∪, ÷} — the algebraic form of
/// the Pos∀G fragment (Thm. 4.4).
bool IsPosForallG(const AlgPtr& q);

/// True iff the subtree is positive relational algebra (no −, ÷, and no
/// ≠ / null(·) in selections) — the algebraic UCQ fragment.
bool IsPositive(const AlgPtr& q);

/// All constants mentioned in selection conditions of the subtree.
/// Parameter placeholders (Value::Param) are *not* constants and are
/// skipped — queries must be bound (see BindParams) before feeding the
/// Fig. 2 translations, which embed these constants into Dom extras.
std::vector<Value> QueryConstants(const AlgPtr& q);

/// Number of parameter slots the query needs: 1 + the largest placeholder
/// index mentioned in any selection condition or Dom extra of the subtree;
/// 0 for a parameter-free query.
size_t ParamCount(const AlgPtr& q);

/// Substitutes every parameter placeholder ?i by `params[i]` throughout
/// the subtree (conditions and Dom extras); the rest of the tree is
/// rebuilt through MapChildren, so parameter-free subtrees are shared, not
/// copied. Errors when an index is out of range or a binding is not a
/// constant.
StatusOr<AlgPtr> BindParams(const AlgPtr& q, const std::vector<Value>& params);

/// All base relations scanned by the subtree.
std::vector<std::string> ScannedRelations(const AlgPtr& q);

/// True iff any selection condition in the subtree uses an order
/// comparison — such queries are not generic, so the exact
/// (valuation-family based) certainty machinery rejects them; the
/// approximation schemes handle them (§6 "Types of attributes").
bool QueryHasOrderComparison(const AlgPtr& q);

}  // namespace incdb

#endif  // INCDB_ALGEBRA_ALGEBRA_H_
