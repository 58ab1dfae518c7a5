#include "engine.h"

#include <optional>
#include <utility>

#include "algebra/algebra.h"
#include "approx/approx.h"
#include "eval/delta.h"
#include "sql/parser.h"
#include "sql/translate.h"
#include "tpch/tpch.h"

namespace perfbench {

using incdb::AlgPtr;
using incdb::CommitInfo;
using incdb::Database;
using incdb::EvalMode;
using incdb::PlanCache;
using incdb::PlanPtr;
using incdb::Relation;
using incdb::ResultCache;
using incdb::Status;
using incdb::StatusOr;
using incdb::Value;
using Scope = SpanRecorder::Scope;

namespace {

Outcome FromResult(StatusOr<Relation> r) {
  Outcome out;
  if (r.ok()) {
    out.result = std::move(r).value();
  } else {
    out.status = r.status();
  }
  return out;
}

const char* RootSpanName(OpKind k) {
  switch (k) {
    case OpKind::kExecute:
      return "api.execute";
    case OpKind::kOneShot:
      return "api.execute_sql";
    case OpKind::kCursor:
      return "api.cursor";
    case OpKind::kMutate:
      return "api.mutate";
    case OpKind::kPlus:
      return "api.certain_plus";
    case OpKind::kMaybe:
      return "api.certain_maybe";
  }
  return "api.unknown";
}

}  // namespace

Engine::Engine(const WorkloadSpec& spec, Database db, SpanRecorder* rec)
    : spec_(spec), sess_(std::move(db)), rec_(rec) {}

Status Engine::Create(const WorkloadSpec& spec, uint64_t seed,
                      SpanRecorder* rec, std::unique_ptr<Engine>* out) {
  Database db;
  {
    Scope s(rec, "tpch.generate");
    db = incdb::tpch::Generate(GenFor(spec, seed));
  }
  std::unique_ptr<Engine> e(new Engine(spec, std::move(db), rec));
  INCDB_RETURN_IF_ERROR(e->Prepare());
  *out = std::move(e);
  return Status::OK();
}

Status Engine::Prepare() {
  const size_t n = spec_.templates.size();
  prepared_.resize(n);
  shadow_.resize(n);
  for (size_t t = 0; t < n; ++t) {
    const Template& tp = spec_.templates[t];
    if (tp.use == Use::kMutate || tp.use == Use::kOneShot) continue;
    if (rec_ == nullptr || tp.use == Use::kCursor) {
      auto pq = sess_.Prepare(tp.sql, tp.mode);
      if (!pq.ok()) return pq.status();
      prepared_[t] = *pq;
      continue;
    }
    auto p = TracedPrepare(tp.sql, tp.mode);
    if (!p.ok()) return p.status();
    shadow_[t] = *p;
  }
  return Status::OK();
}

const AlgPtr& Engine::Algebra(uint32_t t) const {
  return prepared_[t].valid() ? prepared_[t].algebra() : shadow_[t].alg;
}

StatusOr<incdb::Cursor> Engine::OpenCursor(
    uint32_t t, const std::vector<Value>& params) const {
  return prepared_[t].OpenCursor(params);
}

Outcome Engine::Run(const Op& op) {
  return rec_ == nullptr ? RunSession(op) : RunTraced(op);
}

Outcome Engine::RunSession(const Op& op) {
  const Template& tp = spec_.templates[op.tmpl];
  switch (op.kind) {
    case OpKind::kExecute:
      return FromResult(prepared_[op.tmpl].Execute(op.params));
    case OpKind::kOneShot:
      return FromResult(sess_.Execute(tp.sql, op.params, tp.mode));
    case OpKind::kCursor:
      return RunCursor(op.tmpl, op.params);
    case OpKind::kMutate: {
      Outcome out;
      out.status = sess_.Mutate([&](Database::Txn& txn) {
        for (const RowChange& c : op.changes) {
          INCDB_RETURN_IF_ERROR(c.insert ? txn.Insert(c.rel, c.row)
                                         : txn.Remove(c.rel, c.row));
        }
        return Status::OK();
      });
      return out;
    }
    case OpKind::kPlus:
      return FromResult(
          sess_.CertainPlus(prepared_[op.tmpl].algebra(), op.params));
    case OpKind::kMaybe:
      return FromResult(
          sess_.CertainMaybe(prepared_[op.tmpl].algebra(), op.params));
  }
  Outcome bad;
  bad.status = Status::InvalidArgument("unknown op kind");
  return bad;
}

Outcome Engine::RunTraced(const Op& op) {
  Scope root(rec_, RootSpanName(op.kind));
  const Template& tp = spec_.templates[op.tmpl];
  switch (op.kind) {
    case OpKind::kExecute:
      return FromResult(TracedExecute(shadow_[op.tmpl], op.params));
    case OpKind::kOneShot: {
      // Session::Execute(sql): Prepare, then PreparedQuery::Execute.
      auto p = TracedPrepare(tp.sql, tp.mode);
      if (!p.ok()) return FromResult(p.status());
      return FromResult(TracedExecute(*p, op.params));
    }
    case OpKind::kCursor:
      return RunCursor(op.tmpl, op.params);
    case OpKind::kMutate: {
      Outcome out;
      out.status = TracedMutate(op.changes);
      return out;
    }
    case OpKind::kPlus:
    case OpKind::kMaybe:
      return FromResult(TracedCertain(shadow_[op.tmpl].alg,
                                      op.kind == OpKind::kPlus, op.params));
  }
  Outcome bad;
  bad.status = Status::InvalidArgument("unknown op kind");
  return bad;
}

Outcome Engine::RunCursor(uint32_t t, const std::vector<Value>& params) {
  Outcome out;
  StatusOr<incdb::Cursor> cur = Status::Internal("cursor not opened");
  {
    Scope s(rec_, "api.cursor.open");
    cur = prepared_[t].OpenCursor(params);
  }
  if (!cur.ok()) {
    out.status = cur.status();
    return out;
  }
  std::vector<std::pair<incdb::Tuple, uint64_t>> rows;
  rows.reserve(kCursorRows);
  {
    Scope s(rec_, "api.cursor.next");
    for (size_t i = 0; i < kCursorRows; ++i) {
      ++counters_.cursor_next_calls;
      if (!cur->Next()) break;
      rows.emplace_back(cur->row(), cur->count());
    }
  }
  out.status = cur->status();
  out.result = Relation(cur->attrs());
  for (auto& [row, count] : rows) {
    Status st = out.result.Insert(std::move(row), count);
    if (!st.ok()) out.status = st;
  }
  return out;
}

// --- Traced layer path (mirrors api/session.cpp) -----------------------------

Database Engine::TracedSnapshot() {
  Scope s(rec_, "core.database.snapshot");
  return sess_.db().Snapshot();
}

StatusOr<PlanPtr> Engine::TracedCompile(PlanCache& cache, const AlgPtr& q,
                                        EvalMode mode, const Database& snap) {
  const uint64_t misses = cache.stats().misses;
  const uint32_t span = rec_->Open("eval.plan_cache.lookup");
  StatusOr<PlanPtr> plan = cache.CompileCached(q, mode, sess_.options(), snap);
  rec_->Close(span);
  if (cache.stats().misses != misses) {
    rec_->Rename(span, "eval.plan.compile");
    ++counters_.plan_cache_misses;
  } else {
    ++counters_.plan_cache_hits;
  }
  return plan;
}

StatusOr<Engine::Prepared> Engine::TracedPrepare(const std::string& sql,
                                                 EvalMode mode) {
  StatusOr<incdb::SqlQueryPtr> parsed = Status::Internal("not parsed");
  {
    Scope s(rec_, "sql.parse");
    parsed = incdb::ParseSql(sql);
  }
  if (!parsed.ok()) return parsed.status();
  StatusOr<AlgPtr> alg = Status::Internal("not translated");
  {
    Scope s(rec_, "sql.translate");
    alg = incdb::SqlToAlgebra(*parsed, sess_.db());
  }
  if (!alg.ok()) return alg.status();
  Database snap = TracedSnapshot();
  auto plan = TracedCompile(plan_cache_, *alg, mode, snap);
  if (!plan.ok()) return plan.status();
  Prepared p;
  p.alg = *alg;
  p.plan = *plan;
  {
    Scope s(rec_, "eval.plan_cache.key");
    p.key_prefix = incdb::PlanCacheKey(*alg, mode, sess_.options(), snap);
  }
  return p;
}

StatusOr<Relation> Engine::TracedRunPlan(const PlanPtr& plan,
                                         const Database& snap) {
  const uint32_t span = rec_->Open("eval.exec");
  StatusOr<Relation> rel = incdb::Execute(plan, snap);
  rec_->Close(span);
  const Span& s = rec_->spans()[span];
  last_exec_ns_ = s.end_ns - s.start_ns;
  ++counters_.exec_calls;
  for (const std::string& name : plan->scanned_rels) {
    if (const Relation* r = snap.Find(name)) {
      counters_.exec_input_rows += r->DistinctSize();
    }
  }
  if (rel.ok()) counters_.exec_rows_out += rel->DistinctSize();
  return rel;
}

StatusOr<Relation> Engine::TracedExecute(const Prepared& p,
                                         const std::vector<Value>& params) {
  Database snap = TracedSnapshot();
  std::string head;
  std::vector<ResultCache::Dep> deps;
  {
    Scope s(rec_, "eval.result_cache.lookup");
    head = p.key_prefix;
    head += '|';
    for (const Value& v : params) incdb::AppendValueKey(&head, v);
    deps.reserve(p.plan->scanned_rels.size());
    for (const std::string& name : p.plan->scanned_rels) {
      deps.emplace_back(name, snap.Version(name));
    }
    const std::string rkey = ResultCache::ComposeKey(
        head, deps, p.plan->uses_dom, snap.Epoch());
    ++counters_.result_lookups;
    if (std::shared_ptr<const Relation> hit = results_.Lookup(rkey)) {
      ++counters_.result_hits;
      return *hit;
    }
  }
  PlanPtr plan = p.plan;
  if (p.plan->param_count > 0) {
    StatusOr<PlanPtr> bound = Status::Internal("not bound");
    {
      Scope s(rec_, "eval.plan.bind");
      bound = incdb::BindPlanParams(p.plan, params);
    }
    if (!bound.ok()) return bound.status();
    plan = *bound;
  }
  auto rel = TracedRunPlan(plan, snap);
  if (!rel.ok()) return rel.status();
  {
    Scope s(rec_, "eval.result_cache.insert");
    const bool maintainable = plan->maintainable && !plan->uses_dom;
    results_.Insert(head, std::make_shared<Relation>(*rel), std::move(deps),
                    p.plan->uses_dom, snap.Epoch(), maintainable,
                    maintainable ? plan : nullptr);
  }
  return rel;
}

StatusOr<Relation> Engine::TracedCertain(const AlgPtr& q, bool plus,
                                         const std::vector<Value>& params) {
  // Session::CertainPlus/Maybe: bind into the algebra, then EvalPlus /
  // EvalMaybe = translate + EvalSet through a plan cache.
  StatusOr<AlgPtr> bound = Status::Internal("not bound");
  {
    Scope s(rec_, "algebra.bind");
    bound = incdb::BindParams(q, params);
  }
  if (!bound.ok()) return bound.status();
  Database snap = TracedSnapshot();
  StatusOr<AlgPtr> translated = Status::Internal("not translated");
  {
    Scope s(rec_, "approx.translate");
    translated = plus ? incdb::TranslatePlus(*bound, snap)
                      : incdb::TranslateMaybe(*bound, snap);
  }
  if (!translated.ok()) return translated.status();
  auto plan =
      TracedCompile(certain_plans_, *translated, EvalMode::kSetNaive, snap);
  if (!plan.ok()) return plan.status();
  return TracedRunPlan(*plan, snap);
}

Status Engine::TracedMutate(const std::vector<RowChange>& changes) {
  Database& db = sess_.mutable_db();
  uint32_t span = rec_->Open("core.database.stage");
  std::optional<Database::Txn> txn(db.Begin());
  Status st = Status::OK();
  for (const RowChange& c : changes) {
    st = c.insert ? txn->Insert(c.rel, c.row) : txn->Remove(c.rel, c.row);
    if (!st.ok()) break;
  }
  rec_->Close(span);
  if (!st.ok()) return st;
  auto info = std::make_unique<CommitInfo>();
  span = rec_->Open("core.database.commit");
  st = db.Commit(std::move(*txn), info.get());
  rec_->Close(span);
  if (!st.ok()) return st;
  TracedMaintain(*info);
  // The transaction's base and the commit's boundary snapshots pin the
  // replaced relation states; dropping them frees those, which
  // Session::Mutate pays when it returns.
  Scope s(rec_, "core.database.release");
  info.reset();
  txn.reset();
  return Status::OK();
}

void Engine::TracedMaintain(const CommitInfo& info) {
  std::vector<ResultCache::Maintainable> candidates;
  {
    Scope s(rec_, "eval.result_cache.maintain");
    std::vector<std::pair<std::string, uint64_t>> floors;
    floors.reserve(info.deltas.size());
    for (const auto& [name, delta] : info.deltas) {
      const uint64_t v = info.post.Version(name);
      floors.emplace_back(name, v != 0 ? v : info.post.Epoch());
    }
    candidates = results_.BeginMaintenance(floors, info.post.Epoch());
  }
  for (ResultCache::Maintainable& e : candidates) {
    bool ok = true;
    for (const auto& [name, ver] : e.deps) {
      auto dit = info.deltas.find(name);
      if (info.pre.Version(name) != ver ||
          (dit != info.deltas.end() && !dit->second.has_value())) {
        ok = false;
        break;
      }
    }
    StatusOr<incdb::RelationDelta> delta = Status::Internal("not propagated");
    if (ok) {
      Scope s(rec_, "eval.delta.propagate");
      delta = incdb::PropagateDelta(e.plan, info);
      ok = delta.ok();
    }
    if (ok) {
      Scope s(rec_, "eval.delta.apply");
      std::shared_ptr<Relation> target =
          e.result.use_count() == 1 ? std::move(e.result)
                                    : std::make_shared<Relation>(*e.result);
      ok = incdb::ApplyResultDelta(target.get(), *delta,
                                   e.plan->mode != EvalMode::kBagNaive)
               .ok();
      e.result = std::move(target);
    }
    if (!ok) {
      results_.NoteInvalidated();
      continue;
    }
    for (auto& [name, ver] : e.deps) {
      if (info.deltas.count(name) > 0) ver = info.post.Version(name);
    }
    Scope s(rec_, "eval.result_cache.maintain");
    results_.FinishMaintenance(std::move(e));
  }
}

int64_t Engine::TimeSqlExec(uint32_t t, const std::vector<Value>& params) {
  const Prepared& p = shadow_[t];
  Database snap = sess_.db().Snapshot();
  auto bound = incdb::BindPlanParams(p.plan, params);
  if (!bound.ok()) return -1;
  const int64_t t0 = NowNs();
  auto rel = incdb::Execute(*bound, snap);
  const int64_t t1 = NowNs();
  return rel.ok() ? t1 - t0 : -1;
}

LayerCounters Engine::counters() const {
  LayerCounters c = counters_;
  const incdb::ResultCacheStats rs = results_.stats();
  c.maintained = rs.maintained;
  c.invalidated = rs.invalidations;
  return c;
}

}  // namespace perfbench
