#ifndef INCDB_CTABLES_CEVAL_H_
#define INCDB_CTABLES_CEVAL_H_

/// \file ceval.h
/// \brief Conditional evaluation of relational algebra over c-tables and
/// the four approximation strategies of Greco, Molinaro & Trubitsyna [36]
/// (paper §4.2, Theorem 4.9):
///
///  * Eager (Evalᵉ)      — conditions are grounded to t/f/u immediately
///                         after every operator;
///  * Semi-eager (Evalˢ) — as eager, but forced equalities are first
///                         propagated into the tuple data (⟨⊥2, ⊥1=c ∧
///                         ⊥1=⊥2⟩ becomes ⟨c, u⟩);
///  * Lazy (Evalˡ)       — propagation + grounding happen only at each
///                         difference operator;
///  * Aware (Evalᵃ)      — everything is postponed to the very end and
///                         performed on a minimal rewriting of conditions.
///
/// All four run in PTIME and have correctness guarantees:
/// Eval⋆t(Q, D) ⊆ cert⊥(Q, D). Theorem 4.9 also equates eager evaluation
/// with the Fig. 2(b) scheme, Q+(D) = Evalᵉt(Q, D) and Q?(D) = Evalᵉp(Q, D).
/// The theorem concerns the core translation: this evaluator desugars ⋉
/// and ▷, while Fig. 2(b)'s direct ⋉/▷ rules (approx/approx.h) can be more
/// precise than translating that expansion, so Q+ and Q? are compared on
/// Desugar(Q). The test suite checks that equality on the query zoo only.
/// Over random queries it checks Q+ ⊆ Evalᵉt and Evalᵉp ⊆ Q?: grounding
/// decides satisfiability and validity exactly, so eager can be strictly
/// more precise than Fig. 2(b): σ[a ≠ b ∧ a = b] grounds to f on every row,
/// while σ? can keep rows whose a is null.

#include "algebra/algebra.h"
#include "core/database.h"
#include "core/exec_context.h"
#include "core/status.h"
#include "ctables/ctable.h"

namespace incdb {

enum class CStrategy { kEager, kSemiEager, kLazy, kAware };

const char* ToString(CStrategy s);

/// Evaluates `q` (core grammar + ∩; sugar is desugared internally) over the
/// conditional database obtained from `db` with all-true conditions,
/// applying the given strategy's grounding discipline. ÷, ⋉⇑ and Dom are
/// Unsupported.
///
/// `params` binds `?i` parameter placeholders in selection conditions:
/// the query keeps its placeholders, and each resolves against the
/// bindings when its selection condition is instantiated. An unbound
/// placeholder is an InvalidArgument error.
///
/// `ctx` carries a deadline / cancellation token, checked on an amortized
/// schedule inside the quadratic evaluation loops; a default-constructed
/// context never fires.
StatusOr<CTable> CEval(const AlgPtr& q, const Database& db, CStrategy s,
                       const std::vector<Value>& params = {},
                       const ExecContext& ctx = {});

/// Eval⋆t(Q, D): tuples reported certainly true (eq. 9a).
StatusOr<Relation> CEvalCertain(const AlgPtr& q, const Database& db,
                                CStrategy s,
                                const std::vector<Value>& params = {},
                                const ExecContext& ctx = {});
/// Eval⋆p(Q, D): tuples reported possible, i.e. t or u (eq. 9b).
StatusOr<Relation> CEvalPossible(const AlgPtr& q, const Database& db,
                                 CStrategy s,
                                 const std::vector<Value>& params = {},
                                 const ExecContext& ctx = {});

}  // namespace incdb

#endif  // INCDB_CTABLES_CEVAL_H_
