#ifndef INCDB_EVAL_EVAL_H_
#define INCDB_EVAL_EVAL_H_

/// \file eval.h
/// \brief Query evaluators over (incomplete) databases.
///
/// Three evaluation disciplines from the paper:
///
///  * EvalSet — *naive evaluation* (§4.1): nulls are treated as fresh
///    constants and the query is evaluated classically under set semantics.
///    On complete databases this is plain relational algebra evaluation.
///    Data complexity AC0.
///  * EvalBag — the same naive discipline under SQL-style *bag semantics*
///    (§4.2): union adds multiplicities, difference subtracts up to zero,
///    projection adds, product multiplies.
///  * EvalSql — models SQL's actual behaviour (§1, §5.2): selection
///    conditions are evaluated in Kleene's 3VL with every null comparison
///    yielding u, and only rows evaluating to t are kept (the assertion
///    operator ↑); difference behaves like NOT IN and intersection like IN.
///    This evaluator reproduces SQL's false positives and false negatives.
///
/// All evaluators execute the sugar operators (join/semijoin/antijoin)
/// natively with EXISTS-style semantics and use hash-join fast paths for
/// top-level equality conjuncts.
///
/// Since the physical-plan layer (eval/plan.h) these entry points are thin
/// wrappers: the algebra tree is first *compiled* into a physical plan
/// (join strategy, conjunct splitting, projection fusion and the other
/// rewrites below are decided once), then the plan is *executed* against
/// the database. Callers that evaluate one query repeatedly can Compile()
/// once and Execute() many times.

#include "algebra/algebra.h"
#include "core/database.h"
#include "core/exec_context.h"
#include "core/relation.h"
#include "core/status.h"

namespace incdb {

/// Hard ceiling on EvalOptions::num_threads: requests beyond this are
/// clamped at plan-compile time (the chunk count drives per-chunk
/// bookkeeping allocations, so an absurd request must not be taken
/// literally).
inline constexpr size_t kMaxEvalThreads = 64;

/// Resource limits and optimizer toggles for an evaluation.
/// Each enable_* toggle switches one rewrite pass of the plan compiler
/// (eval/plan.h) on or off; they exist for the ablation study
/// (bench_ablation) and disabling them never changes results, only cost
/// (and the compiled plan's shape).
struct EvalOptions {
  /// Abort with ResourceExhausted once a single operator has produced this
  /// many tuple occurrences. Dom^k products (Fig. 2a) hit this quickly,
  /// which is experiment E2.
  uint64_t max_tuples = 100'000'000;
  /// Hash join on top-level equality conjuncts (vs nested loops).
  bool enable_hash_join = true;
  /// σ_{θ1∨θ2}(l×r) = σ_{θ1}(l×r) ∪ σ_{θ2}(l×r) under set semantics, for
  /// a join condition without an equality key — rescues the disjunctions
  /// the Fig. 2(b) σ?-rule puts on joins. (⋉/▷ need no rewrite: their θ?
  /// disjunctions are null-aware keys, eval/plan.h.)
  bool enable_or_expansion = true;
  /// π(σ(l×r)) projects at emit time instead of materialising pairs.
  bool enable_projection_fusion = true;
  /// Null-mask index for ⋉⇑ probes (vs quadratic unifiability scans).
  bool enable_unify_index = true;
  /// One-sided filter conjuncts of a join condition move below the join
  /// (through products and renames) at plan-compile time, and so do the
  /// right-only conjuncts of a semijoin or antijoin condition. The join
  /// order is not an option: every σ/×/⋈ tree is planned from its join
  /// graph, each conjunct at the lowest join that covers it (eval/plan.h).
  bool enable_selection_pushdown = true;
  /// Worker threads for the binary physical operators (both joins,
  /// difference, intersection, ⋉⇑, semijoin/antijoin — [NOT] IN runs as
  /// one). >1 lets an operator split its outer rows (left rows, or the hash
  /// join's probe rows) into this many contiguous chunks on a small thread
  /// pool and merge their outputs in chunk order, so every operator returns
  /// the exact sequential rows in the sequential order at any thread count.
  /// Validated at plan-compile time: 0 means "use hardware_concurrency()",
  /// values above kMaxEvalThreads are clamped (see ResolveNumThreads in
  /// eval/plan.h).
  size_t num_threads = 1;
  /// Minimum input size (operator-specific: left×right pairs for the NL
  /// join, left+right rows for the others, divided by a per-operator grain
  /// — see eval/parallel_policy.h) before an operator actually splits work
  /// across the pool — below it, threading overhead dominates. Tests set
  /// this to 0 to force the parallel paths on tiny inputs.
  size_t parallel_min_rows = 1024;
  /// Rows per window of the operator kernels (eval/kernel.h): filters,
  /// projections and the join loops sweep their input this many rows at a
  /// time, evaluate condition programs column-wise into a selection
  /// vector, and fire deadline/cancel checkpoints once per window; the
  /// streaming cursor and delta maintenance refill through the same
  /// windows. Must be at least 1 — Compile rejects 0 with
  /// kInvalidArgument. Never changes results: rows, order and
  /// multiplicities are bit-identical at every window size (the
  /// differential fuzzer crosses 1/3/1024).
  size_t batch_size = 1024;
  /// Serve EvalSet/EvalBag/EvalSql compilations from the process-wide
  /// query-identity plan cache (eval/plan_cache.h) instead of recompiling
  /// per call. Never changes results — the cache key covers the query
  /// structure, mode, every option above and the scanned schemas.
  bool use_plan_cache = true;
  /// Serve repeated PreparedQuery::Execute calls from the session's
  /// data-fingerprint-aware result cache (eval/result_cache.h) when the
  /// scanned relations' version stamps are unchanged. Never changes
  /// results — keys cover query identity, bindings and data versions.
  /// Not part of the plan-cache key (it does not affect compilation).
  bool use_result_cache = true;
  /// On Session::Mutate commits, upgrade cached results of maintainable
  /// plans in place by propagating the commit's row-level deltas
  /// (eval/delta.h) instead of invalidating them. Never changes results —
  /// maintained entries are bag-identical to cold recomputation (the
  /// differential fuzzer crosses the two paths). Off, every touched
  /// dependency invalidates. Only meaningful with use_result_cache; not
  /// part of the plan-cache key (it does not affect compilation).
  bool use_result_maintenance = true;
};

/// Naive evaluation under set semantics (treat nulls as fresh constants).
/// The four-argument overloads carry an ExecContext (deadline /
/// cancellation token / soft memory budget) observed cooperatively by
/// every operator; the three-argument forms run unlimited. Separate
/// overloads — not a defaulted parameter — so `&EvalSet` keeps its
/// existing function-pointer type.
StatusOr<Relation> EvalSet(const AlgPtr& q, const Database& db,
                           const EvalOptions& opts = {});
StatusOr<Relation> EvalSet(const AlgPtr& q, const Database& db,
                           const EvalOptions& opts, const ExecContext& ctx);

/// Naive evaluation under bag semantics.
StatusOr<Relation> EvalBag(const AlgPtr& q, const Database& db,
                           const EvalOptions& opts = {});
StatusOr<Relation> EvalBag(const AlgPtr& q, const Database& db,
                           const EvalOptions& opts, const ExecContext& ctx);

/// SQL-style evaluation: 3VL WHERE (keep t), NOT-IN-style difference,
/// IN-style intersection; set semantics output (DISTINCT).
StatusOr<Relation> EvalSql(const AlgPtr& q, const Database& db,
                           const EvalOptions& opts = {});
StatusOr<Relation> EvalSql(const AlgPtr& q, const Database& db,
                           const EvalOptions& opts, const ExecContext& ctx);

/// Kleene truth value of the whole-tuple comparison r̄ = s̄ under SQL 3VL:
/// f if some position has two distinct constants, else u if any null is
/// involved, else t. (Used by NOT IN / IN modelling.)
TV3 SqlTupleEq(const Tuple& a, const Tuple& b);

}  // namespace incdb

#endif  // INCDB_EVAL_EVAL_H_
