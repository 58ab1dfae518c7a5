#ifndef INCDB_EVAL_VERIFY_H_
#define INCDB_EVAL_VERIFY_H_

/// \file verify.h
/// \brief The plan verifier: LLVM-style structural validation of compiled
/// physical plans.
///
/// Every layer that produces or rewrites a Plan — Compile's lowering +
/// rewrite passes, BindPlanParams' clone-substitution, the plan cache,
/// delta maintenance — relies on a set of IR invariants that nothing used
/// to check explicitly: schema positions stay in bounds, predicates
/// resolve against their input schema, the operator DAG stays acyclic, the
/// maintainability marker matches the supported-op subset. VerifyPlan()
/// walks the DAG once and validates all of them, returning kInternal with
/// a *path-to-node* diagnostic ("root.left.right (HashJoin): ...") on the
/// first violation.
///
/// **What is checked, per node:**
///  * child shape: leaves (ScanView, Dom) have no inputs, unary operators
///    exactly a left input, binary operators both;
///  * output schema consistency: filters/renames/set-ops mirror their
///    input arity (and names where the operator preserves them), joins
///    concatenate disjoint input schemas, projections map every output
///    position to an in-bounds input position with the matching name;
///  * key/column indices: hash-join and semijoin key positions and
///    division alignment positions are in range of the side they index,
///    with matching left/right counts; a null-aware semijoin has keys;
///  * predicates: every condition-bearing node (σ, π∘σ, both joins,
///    ⋉/▷) carries its columnar program, the condition only
///    references attributes of the operator's input schema (the joint
///    schema for join-like nodes), and a parameter-free condition's
///    program is well-formed (BatchPredicate::Validate — postorder stack
///    discipline, register count, operand kinds and column bounds); a
///    semijoin's trivial_residual / residual_left_only flags say exactly
///    whether its residual is `true` / reads only left columns;
///  * scan ↔ catalog: with a database supplied, every ScanView's recorded
///    schema matches the catalog's current schema for that relation.
///
/// **What is checked, per plan:**
///  * the operator graph is a DAG (shared subtrees fine, cycles fatal)
///    and Plan::refcount records the exact parent-edge counts the
///    executor's shared-subtree memoisation keys on;
///  * Plan::param_count covers every ?i placeholder mentioned by any
///    condition or Dom extra;
///  * Plan::scanned_rels / uses_dom agree with the actual leaves;
///  * Plan::maintainable holds exactly when every operator belongs to the
///    delta-propagation subset (OpIsMaintainable);
///  * EvalOptions::num_threads was resolved (1..kMaxEvalThreads).
///
/// **Wiring.** Under INCDB_VERIFY_PLANS (on in Debug builds and every
/// sanitizer CI job, compiled out of Release hot paths) the verifier runs
/// automatically after Compile / BindPlanParams, at plan-cache insertion
/// and at delta-maintenance entry; a finding turns the producing call into
/// a kInternal error instead of letting a malformed plan reach the
/// executor. VerifyPlan itself is always compiled and callable — tests
/// assert zero findings over the fuzz corpus in every build type. When
/// the wiring is compiled in, setting the environment variable
/// INCDB_VERIFY_PLANS=0 disables it at runtime (it defaults to enabled).

#include "core/database.h"
#include "core/status.h"
#include "eval/plan.h"

namespace incdb {

/// Structurally validates `plan`. Returns OK or kInternal whose message
/// names the offending node by its path from the root ("root.left..."),
/// its operator and the violated invariant. With `catalog`, every scan's
/// recorded schema is additionally checked against the database's current
/// schema for that relation.
Status VerifyPlan(const Plan& plan, const Database* catalog = nullptr);

/// Convenience overload; a null plan (or null root) is a finding.
Status VerifyPlan(const PlanPtr& plan, const Database* catalog = nullptr);

/// True when the automatic INCDB_VERIFY_PLANS wiring should run: the
/// macro is compiled in and the INCDB_VERIFY_PLANS environment variable
/// is unset or non-zero. Reads the environment once per process.
bool PlanVerificationEnabled();

namespace internal {

/// The compiled-in wiring used at the plan-producing seams: verifies when
/// enabled, no-ops (always OK) when the macro is compiled out.
inline Status MaybeVerifyPlan(const Plan& plan,
                              const Database* catalog = nullptr) {
#ifdef INCDB_VERIFY_PLANS
  if (PlanVerificationEnabled()) return VerifyPlan(plan, catalog);
#else
  (void)plan;
  (void)catalog;
#endif
  return Status::OK();
}

}  // namespace internal

}  // namespace incdb

#endif  // INCDB_EVAL_VERIFY_H_
