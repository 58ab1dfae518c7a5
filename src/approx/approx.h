#ifndef INCDB_APPROX_APPROX_H_
#define INCDB_APPROX_APPROX_H_

/// \file approx.h
/// \brief The two approximation schemes with correctness guarantees of
/// paper §4.2 (Figure 2).
///
/// Scheme (a), from [51] (Libkin, TODS'16): Q ↦ (Qt, Qf), where Qt(D) ⊆
/// cert⊥(Q, D) and Qf(D) ⊆ cert⊥(¬Q, D). Sound but impractical: the Qf
/// rules multiply active-domain products Dom^k, which blow up on databases
/// with only hundreds of tuples (experiment E2).
///
/// Scheme (b), from [37] (Guagliardo & Libkin, PODS'16): Q ↦ (Q+, Q?),
/// where Q+ has correctness guarantees for Q and Q? over-approximates the
/// possible answers:  v(Q+(D)) ⊆ Q(v(D)) ⊆ v(Q?(D)) for every valuation v
/// (Theorem 4.7). Under bag semantics the same translation brackets the
/// minimal multiplicity: #(ā,Q+(D)) ≤ □Q(D,ā) ≤ #(ā,Q?(D)) (Theorem 4.8).
///
/// The Fig. 2(b) translation reads the core grammar {scan, σ, π, ρ, ×, ∪,
/// −} plus ⋉θ, ▷θ and δ; PrepareForTranslation() desugars ⋈ and
/// [NOT] IN (into ⋉/▷ on θ ∧ lcols = rcols) and rewrites ∩ as
/// Q1 − (Q1 − Q2) first. δ maps over its input: (δQ)+ = δ(Q+) and
/// (δQ)? = δ(Q?). Under sets δ is the identity. Under bags it keeps both
/// halves of Theorem 4.8's bracket, since #(ā, δQ) = min(1, #(ā, Q)) and
/// min(1, ·) is monotone: □(δQ)(D, ā) = min(1, □Q(D, ā)) lies between
/// min(1, #(ā, Q+(D))) and min(1, #(ā, Q?(D))). (Dropping δ instead would
/// break the lower half: for R = {(1,1), (1,2)} and q = δ(π_a R), π_a R
/// counts (1) twice while □q = 1.) With θ* the certainly-true condition
/// (each ≠ and order comparison guarded by const(·)) and θ? = ¬(¬θ)*, its
/// rules for the semijoins are
///
///   (Q1 ⋉θ Q2)+ = Q1+ ⋉θ* Q2+        (Q1 ⋉θ Q2)? = Q1? ⋉θ? Q2?
///   (Q1 ▷θ Q2)+ = Q1+ ▷θ? Q2?        (Q1 ▷θ Q2)? = Q1? ▷θ* Q2+
///
/// Each follows from three facts, for every valuation v: θ*(t, u) implies
/// θ(v(t), v(u)); θ(v(t), v(u)) implies θ?(t, u), since (¬θ)*(t, u) would
/// imply ¬θ(v(t), v(u)); and the inputs satisfy v(Q+(D)) ⊆ Q(v(D)) ⊆
/// v(Q?(D)). Write s' for a partner of s, a row of Q2(v(D)) with θ(s, s').
///  * ⋉, Q+: a kept t has a u ∈ Q2+(D) with θ*(t, u), so v(u) ∈ Q2(v(D))
///    is a partner of v(t) ∈ Q1(v(D)).
///  * ⋉, Q?: s ∈ (Q1 ⋉θ Q2)(v(D)) is v(t) for a t ∈ Q1?(D), and its
///    partner is v(u) for a u ∈ Q2?(D); θ?(t, u) holds, so t is kept.
///  * ▷, Q+: a kept t has v(t) ∈ Q1(v(D)); a partner of v(t) would be
///    v(u) for a u ∈ Q2?(D) with θ?(t, u), which ▷θ? excluded.
///  * ▷, Q?: s ∈ (Q1 ▷θ Q2)(v(D)) is v(t) for a t ∈ Q1?(D); a u ∈ Q2+(D)
///    with θ*(t, u) would make v(u) a partner of s, so t is kept.
/// fig2b.cpp repeats each argument beside its rule. Each argument is about
/// one t, and ⋉ and ▷ keep a left row with its own multiplicity, so the
/// rules keep Theorem 4.8's bag bracket as well. Under sets the ⋉ rules give
/// what the expansion π(σθ(Q1 × Q2)) translates to; the ▷ rules are more
/// precise than translating Q1 − π(σθ(Q1 × Q2)). That Q+ is
/// Q1+ ⋉⇑ π(σθ?(Q1? × Q2?)), which also drops t when another row of Q1?
/// unifies with t. So the direct Q+ contains the expansion's Q+, and the
/// direct Q? is contained in the expansion's Q?.
/// Theorem 4.9's equality with the c-table evaluation concerns the core
/// translation: Desugar the query first to compare them.
///
/// Scheme (a) has no ⋉/▷ rules; it translates their Desugar expansion.
/// Each translator spells out only the rules that do more than translate
/// their inputs (−, σ, ⋉ and ▷, and every Qf rule but ρ's); scans, ∪, ×,
/// π and ρ go through MapChildren, so subtrees a translation leaves
/// unchanged are shared with its input.
/// The translated queries are ordinary relational algebra and are meant to
/// be run with the *naive* evaluators (EvalSet / EvalBag).

#include "algebra/algebra.h"
#include "core/database.h"
#include "core/status.h"
#include "eval/eval.h"

namespace incdb {

/// Desugars ⋈ and [NOT] IN (DesugarToSemijoins) and rewrites ∩, so the
/// result uses only the grammar the Fig. 2 translations accept: the core
/// grammar plus ⋉, ▷ and δ (Fig. 2(a) reads its Desugar, which drops δ
/// and expands ⋉ and ▷). Fails for ÷ / ⋉⇑ / Dom inputs, for const(·) /
/// null(·) tests, and for queries that do not resolve against the schemas
/// of `db`.
StatusOr<AlgPtr> PrepareForTranslation(const AlgPtr& q, const Database& db);

/// Fig. 2(b): the certain-answer under-approximation Q+.
StatusOr<AlgPtr> TranslatePlus(const AlgPtr& q, const Database& db);
/// Fig. 2(b): the possible-answer over-approximation Q?.
StatusOr<AlgPtr> TranslateMaybe(const AlgPtr& q, const Database& db);

/// Fig. 2(a): the certainly-true translation Qt.
StatusOr<AlgPtr> TranslateCertTrue(const AlgPtr& q, const Database& db);
/// Fig. 2(a): the certainly-false translation Qf.
StatusOr<AlgPtr> TranslateCertFalse(const AlgPtr& q, const Database& db);

/// Convenience: translate + naive set evaluation.
StatusOr<Relation> EvalPlus(const AlgPtr& q, const Database& db,
                            const EvalOptions& opts = {});
StatusOr<Relation> EvalMaybe(const AlgPtr& q, const Database& db,
                             const EvalOptions& opts = {});
StatusOr<Relation> EvalCertTrue(const AlgPtr& q, const Database& db,
                                const EvalOptions& opts = {});
StatusOr<Relation> EvalCertFalse(const AlgPtr& q, const Database& db,
                                 const EvalOptions& opts = {});

}  // namespace incdb

#endif  // INCDB_APPROX_APPROX_H_
