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
/// Both translations consume the paper's core grammar
/// {scan, σ, π, ρ, ×, ∪, −}; PrepareForTranslation() desugars the
/// convenience operators and rewrites ∩ as Q1 − (Q1 − Q2) first.
/// Each translator spells out only the rules that do more than translate
/// their inputs (− and σ, and every Qf rule but ρ's); scans, ∪, ×, π and ρ
/// go through MapChildren, so subtrees a translation leaves unchanged are
/// shared with its input.
/// The translated queries are ordinary relational algebra and are meant to
/// be run with the *naive* evaluators (EvalSet / EvalBag).

#include "algebra/algebra.h"
#include "core/database.h"
#include "core/status.h"
#include "eval/eval.h"

namespace incdb {

/// Desugars sugar operators and ∩ so the result uses only the grammar the
/// Fig. 2 translations accept. Fails for ÷ / ⋉⇑ / Dom inputs.
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
