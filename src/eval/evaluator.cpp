// The three public evaluators (eval/eval.h) as thin wrappers over the
// physical-plan layer: look the compiled plan up in the process-wide
// query-identity cache (eval/plan_cache.h) — compiling on the first
// encounter only — then run it (eval/exec.cpp). Callers that want manual
// control can call Compile() + Execute() themselves.

#include <cassert>

#include "eval/eval.h"
#include "eval/plan.h"
#include "eval/plan_cache.h"

namespace incdb {

TV3 SqlTupleEq(const Tuple& a, const Tuple& b) {
  assert(a.arity() == b.arity());
  bool any_null = false;
  for (size_t i = 0; i < a.arity(); ++i) {
    if (a[i].is_null() || b[i].is_null()) {
      any_null = true;
    } else if (!(a[i] == b[i])) {
      return TV3::kF;
    }
  }
  return any_null ? TV3::kU : TV3::kT;
}

namespace {

StatusOr<Relation> CompileAndRun(const AlgPtr& q, EvalMode mode,
                                 const EvalOptions& opts, const Database& db,
                                 const ExecContext& ctx) {
  auto plan = opts.use_plan_cache
                  ? PlanCache::Global().CompileCached(q, mode, opts, db)
                  : Compile(q, mode, opts, db);
  if (!plan.ok()) return plan.status();
  return Execute(*plan, db, ctx);
}

}  // namespace

StatusOr<Relation> EvalSet(const AlgPtr& q, const Database& db,
                           const EvalOptions& opts) {
  return CompileAndRun(q, EvalMode::kSetNaive, opts, db, ExecContext{});
}

StatusOr<Relation> EvalSet(const AlgPtr& q, const Database& db,
                           const EvalOptions& opts, const ExecContext& ctx) {
  return CompileAndRun(q, EvalMode::kSetNaive, opts, db, ctx);
}

StatusOr<Relation> EvalBag(const AlgPtr& q, const Database& db,
                           const EvalOptions& opts) {
  return CompileAndRun(q, EvalMode::kBagNaive, opts, db, ExecContext{});
}

StatusOr<Relation> EvalBag(const AlgPtr& q, const Database& db,
                           const EvalOptions& opts, const ExecContext& ctx) {
  return CompileAndRun(q, EvalMode::kBagNaive, opts, db, ctx);
}

StatusOr<Relation> EvalSql(const AlgPtr& q, const Database& db,
                           const EvalOptions& opts) {
  return CompileAndRun(q, EvalMode::kSetSql, opts, db, ExecContext{});
}

StatusOr<Relation> EvalSql(const AlgPtr& q, const Database& db,
                           const EvalOptions& opts, const ExecContext& ctx) {
  return CompileAndRun(q, EvalMode::kSetSql, opts, db, ctx);
}

}  // namespace incdb
