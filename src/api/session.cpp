// Session facade implementation (see api/session.h for the contract).
//
// Prepare = parse → translate → CompileCached on the *parameterized*
// algebra (the session's private PlanCache keys placeholders by index, so
// one query template is one entry). Execute = pin snapshot → stale guard →
// result-cache probe → BindPlanParams (clone-substitute over the affected
// nodes, no rewrite pass re-runs) → Execute against the snapshot. The
// cursor streams the maximal unary operator chain at the plan root over
// its own pinned snapshot; everything below it is materialised once
// through ExecuteNode.

#include "api/session.h"

#include <atomic>
#include <cctype>

#include "approx/approx.h"
#include "core/fault.h"
#include "eval/delta.h"
#include "eval/kernel.h"
#include "sql/translate.h"

namespace incdb {

namespace internal {

struct SessionState {
  Database db;
  EvalOptions opts;
  uint64_t max_valuations;
  PlanCache cache;
  ResultCache results;
  std::atomic<uint64_t> prepares{0};
  std::atomic<uint64_t> executes{0};
  std::atomic<uint64_t> cursors{0};
  std::atomic<uint64_t> stale_retries{0};

  SessionState(Database d, EvalOptions o)
      : db(std::move(d)),
        opts(o),
        max_valuations(CertainOptions{}.max_valuations) {}
};

}  // namespace internal

using internal::SessionState;

// The unit of transparent re-preparation: everything CheckFresh guards
// and Execute/OpenCursor read must be swapped together, or a retry racing
// a concurrent execution could pair a new plan with old scan schemas.
struct PreparedQuery::Compiled {
  PlanPtr plan;  ///< Parameterized template; bound per Execute.
  /// Query-identity prefix of result-cache keys (the plan-cache key bytes
  /// at (re-)Prepare time).
  std::string key_prefix;
  /// (relation, schema at (re-)Prepare) for every scanned relation — what
  /// CheckFresh compares against the pinned snapshot.
  std::vector<std::pair<std::string, std::vector<std::string>>> scan_schemas;
};

// --- SQL error annotation ----------------------------------------------------

Status AnnotateSqlError(const Status& st, const std::string& sql) {
  if (st.ok()) return st;
  const std::string& msg = st.message();
  const std::string marker = " at offset ";
  size_t p = msg.rfind(marker);
  if (p == std::string::npos) return st;
  size_t digits = p + marker.size();
  size_t end = digits;
  while (end < msg.size() &&
         std::isdigit(static_cast<unsigned char>(msg[end]))) {
    ++end;
  }
  if (end == digits) return st;
  size_t off = 0;
  for (size_t i = digits; i < end; ++i) {
    off = off * 10 + static_cast<size_t>(msg[i] - '0');
  }
  if (off > sql.size()) off = sql.size();
  // The offset may point one past the input (parser errors at EOF report
  // sql.size()) or at trailing whitespace/newlines; rendering those
  // verbatim puts the caret under an empty line or a blank column. Clamp
  // to the last non-whitespace byte at or before the offset so the caret
  // lands under the token the parser actually stopped at.
  size_t caret = off;
  if (caret >= sql.size()) caret = sql.empty() ? 0 : sql.size() - 1;
  while (caret > 0 &&
         std::isspace(static_cast<unsigned char>(sql[caret]))) {
    --caret;
  }
  // Quote the line containing the caret with the caret under the byte.
  size_t line_start =
      caret == 0 ? std::string::npos : sql.rfind('\n', caret - 1);
  line_start = line_start == std::string::npos ? 0 : line_start + 1;
  size_t line_end = sql.find('\n', caret);
  if (line_end == std::string::npos) line_end = sql.size();
  std::string annotated = msg;
  annotated += "\n  ";
  annotated.append(sql, line_start, line_end - line_start);
  annotated += "\n  ";
  annotated.append(caret - line_start, ' ');
  annotated += "^";
  return Status(st.code(), std::move(annotated));
}

namespace {

const char* ModeName(EvalMode mode) {
  switch (mode) {
    case EvalMode::kSetNaive:
      return "set";
    case EvalMode::kBagNaive:
      return "bag";
    case EvalMode::kSetSql:
      return "sql";
  }
  return "?";
}

/// Exactly param_count constants, with actionable messages for arity and
/// type mismatches.
Status ValidateBindings(const std::vector<Value>& params, size_t need) {
  if (params.size() != need) {
    return Status::InvalidArgument(
        "query expects " + std::to_string(need) + " parameter binding(s), " +
        "got " + std::to_string(params.size()));
  }
  for (size_t i = 0; i < params.size(); ++i) {
    if (!params[i].is_const()) {
      return Status::InvalidArgument(
          "parameter ?" + std::to_string(i) +
          " must be bound to a constant, got " + params[i].ToString());
    }
  }
  return Status::OK();
}

}  // namespace

// --- Cursor ------------------------------------------------------------------

struct Cursor::Impl {
  std::shared_ptr<SessionState> state;
  PlanPtr plan;  ///< Fully bound (param_count == 0); owns the stage nodes.
  /// The database version this cursor streams: pinned at OpenCursor, so
  /// borrowed scan rows stay alive and consistent while writers commit.
  /// Declared before `scans`, which resolves against it.
  Database snapshot;
  ScanResolver scans;
  RelationView base;
  /// Root operator chain, root first; applied bottom-up per window.
  std::vector<const PhysNode*> stages;
  /// Per-stage dedup state for kDistinct stages (indexed like `stages`).
  std::vector<std::unordered_set<Tuple>> distinct_seen;
  /// Top-level multiplicity collapse: set-semantics modes with a
  /// projection in the chain may fold distinct input rows together.
  bool dedup = false;
  std::unordered_set<Tuple> seen;
  bool streaming = false;
  size_t next_row = 0;
  Tuple current;
  uint64_t current_count = 0;
  /// Deadline / cancellation context the cursor was opened with; covers
  /// the whole drain, checked once per refill window. `limited` caches
  /// ctx.limited() so an inert context costs one predictable branch.
  ExecContext ctx;
  bool limited = false;
  /// Streaming row budget: deliveries so far vs EvalOptions::max_tuples
  /// (the materialised remainder below the chain is budgeted separately
  /// inside ExecuteNode; this bounds what the lazy chain itself emits).
  uint64_t emitted = 0;
  uint64_t max_tuples = 0;
  /// Terminal status (Cursor::status()); non-OK latches Next() to false.
  Status status = Status::OK();
  /// Windowed drain: RefillBatch pulls a window of base rows and pushes it
  /// through the stage chain with the executor's window kernel
  /// (eval/kernel.h); delivery-side dedup and the max_tuples budget run
  /// per pop. The window starts small (a top-k caller that drains ten
  /// rows must not pay for a 1024-row window) and grows 8× per refill up
  /// to EvalOptions::batch_size (GrowWindow: 16 → 128 → 1024), so full
  /// drains amortize to the configured window after two refills.
  size_t window = 0;
  WindowKernel kernel;
  /// Rows that survived the stage chain, not yet delivered; `spare` is
  /// the other half of the stage-to-stage ping-pong.
  std::vector<Relation::Row> buf, spare;
  size_t buf_pos = 0;

  Impl(std::shared_ptr<SessionState> s, PlanPtr p, Database snap)
      : state(std::move(s)),
        plan(std::move(p)),
        snapshot(std::move(snap)),
        scans(snapshot) {}
};

namespace {
/// Pulls windows of base rows and pushes each through the stage chain
/// bottom-up until some rows survive or the base is drained. One
/// deadline/cancel check per window. Returns non-OK only for a ctx
/// failure (the caller latches it; buffered-but-undelivered rows are
/// dropped, matching the executor's partial-result semantics). Template
/// so the (private) Cursor::Impl type is deduced, never named.
template <typename ImplT>
Status RefillBatch(ImplT& I) {
  const std::vector<Relation::Row>& rows = I.base.rows();
  while (I.buf_pos >= I.buf.size() && I.next_row < rows.size()) {
    if (I.limited) INCDB_RETURN_IF_ERROR(I.ctx.Check());
    I.window = GrowWindow(I.window, 16, I.plan->opts.batch_size);
    // The span [b, e) of *src moves up the chain: each stage reads it
    // (the base rows themselves for the first) and writes its survivors
    // to whichever buffer the span is not in.
    const std::vector<Relation::Row>* src = &rows;
    size_t b = I.next_row;
    size_t e = std::min(rows.size(), b + I.window);
    I.next_row = e;
    I.buf_pos = 0;
    for (size_t si = I.stages.size(); si-- > 0;) {
      const PhysNode* n = I.stages[si];
      if (n->op == PhysOp::kRename) continue;  // positional: nothing to do
      std::vector<Relation::Row>* dst = src == &I.buf ? &I.spare : &I.buf;
      dst->clear();
      if (n->op == PhysOp::kDistinct) {
        for (size_t i = b; i < e; ++i) {
          const Tuple& t = (*src)[i].first;
          if (I.distinct_seen[si].insert(t).second) dst->emplace_back(t, 1);
        }
      } else {
        INCDB_RETURN_IF_ERROR(I.kernel.Run(
            *n, *src, b, e, [dst](const Tuple& t, uint64_t c) {
              dst->emplace_back(t, c);
              return Status::OK();
            }));
      }
      src = dst;
      b = 0;
      e = dst->size();
    }
    if (src == &rows) {
      I.buf.assign(rows.begin() + b, rows.begin() + e);
    } else if (src == &I.spare) {
      I.buf.swap(I.spare);
    }
  }
  return Status::OK();
}
}  // namespace

bool Cursor::Next() {
  if (!impl_) return false;
  Impl& I = *impl_;
  if (!I.status.ok()) return false;
  for (;;) {
    if (I.buf_pos >= I.buf.size()) {
      Status rst = RefillBatch(I);
      if (!rst.ok()) {
        I.status = std::move(rst);
        return false;
      }
      if (I.buf_pos >= I.buf.size()) return false;  // base drained
    }
    Tuple t = std::move(I.buf[I.buf_pos].first);
    uint64_t c = I.buf[I.buf_pos].second;
    ++I.buf_pos;
    if (I.dedup) {
      if (!I.seen.insert(t).second) continue;
      c = 1;
    }
    if (++I.emitted > I.max_tuples) {
      StatusDetail d;
      d.budget_used = I.emitted;
      d.budget_limit = I.max_tuples;
      I.status = Status::ResourceExhausted(
                     "cursor stream exceeded max_tuples=" +
                     std::to_string(I.max_tuples))
                     .WithDetail(std::move(d));
      return false;
    }
    I.current = std::move(t);
    I.current_count = c;
    return true;
  }
}

const Status& Cursor::status() const {
  static const Status kOk = Status::OK();
  return impl_ ? impl_->status : kOk;
}

const Tuple& Cursor::row() const {
  static const Tuple kEmpty;
  return impl_ ? impl_->current : kEmpty;
}
uint64_t Cursor::count() const { return impl_ ? impl_->current_count : 0; }
const std::vector<std::string>& Cursor::attrs() const {
  static const std::vector<std::string> kNone;
  return impl_ ? impl_->plan->root->attrs : kNone;
}
bool Cursor::streaming() const { return impl_ && impl_->streaming; }

// --- PreparedQuery -----------------------------------------------------------

Status PreparedQuery::CheckFresh(const Database& snap, const Compiled& c) {
  for (const auto& [name, attrs] : c.scan_schemas) {
    const Relation* rel = snap.Find(name);
    if (rel == nullptr) {
      return Status::FailedPrecondition(
          "prepared query is stale: relation '" + name +
          "' was dropped after Prepare; re-prepare the query");
    }
    if (rel->attrs() != attrs) {
      return Status::FailedPrecondition(
          "prepared query is stale: relation '" + name +
          "' changed schema after Prepare; re-prepare the query");
    }
  }
  return Status::OK();
}

StatusOr<std::shared_ptr<const PreparedQuery::Compiled>>
PreparedQuery::Refreshed(const Database& snap) const {
  // Recompile with the options the template originally compiled with
  // (prepared queries keep their options even if the session's changed).
  std::shared_ptr<const Compiled> old = std::atomic_load(&compiled_);
  auto plan = state_->cache.CompileCached(alg_, mode_, old->plan->opts, snap);
  if (!plan.ok()) return plan.status();
  // Drop-in compatibility: the retry must be invisible to the caller, so
  // the public contract — output attributes and parameter count — must
  // be unchanged by the recompilation.
  if ((*plan)->root->attrs != out_attrs_ ||
      (*plan)->param_count != param_count_) {
    return Status::FailedPrecondition(
        "recompiled plan is incompatible with the prepared contract");
  }
  auto fresh = std::make_shared<Compiled>();
  fresh->plan = *plan;
  fresh->key_prefix = PlanCacheKey(alg_, mode_, old->plan->opts, snap);
  for (const std::string& name : (*plan)->scanned_rels) {
    const Relation* rel = snap.Find(name);
    if (rel == nullptr) {
      return Status::Internal("re-prepared scan of unknown relation '" + name +
                              "'");
    }
    fresh->scan_schemas.emplace_back(name, rel->attrs());
  }
  return std::shared_ptr<const Compiled>(std::move(fresh));
}

StatusOr<std::shared_ptr<const PreparedQuery::Compiled>>
PreparedQuery::FreshCompiled(const Database& snap) const {
  std::shared_ptr<const Compiled> c = std::atomic_load(&compiled_);
  Status fresh = CheckFresh(snap, *c);
  if (fresh.ok()) return c;
  if (fresh.code() != StatusCode::kFailedPrecondition) return fresh;
  // Stale: the scanned relations changed under us. Re-prepare once
  // against this very snapshot; if the world healed (relation back with a
  // compatible schema) the retry is transparent, otherwise surface the
  // original structured stale error.
  auto re = Refreshed(snap);
  if (!re.ok()) return fresh;
  std::atomic_store(&compiled_, *re);
  state_->stale_retries.fetch_add(1, std::memory_order_relaxed);
  return *re;
}

std::string PreparedQuery::ResultHead(const Compiled& c,
                                      const std::vector<Value>& params) {
  std::string head = c.key_prefix;
  head += '|';
  for (const Value& v : params) AppendValueKey(&head, v);
  return head;
}

StatusOr<Relation> PreparedQuery::Execute(
    const std::vector<Value>& params) const {
  return Execute(params, ExecContext{});
}

StatusOr<Relation> PreparedQuery::Execute(const std::vector<Value>& params,
                                          const ExecContext& ctx) const {
  if (!valid()) return Status::InvalidArgument("PreparedQuery is empty");
  INCDB_RETURN_IF_ERROR(ValidateBindings(params, param_count_));
  Database snap = state_->db.Snapshot();
  INCDB_FAULT_POINT("session.snapshot_pin");
  auto compiled = FreshCompiled(snap);
  if (!compiled.ok()) return compiled.status();
  const Compiled& c = **compiled;
  state_->executes.fetch_add(1, std::memory_order_relaxed);

  const bool use_cache = state_->opts.use_result_cache;
  std::string head;
  std::vector<ResultCache::Dep> deps;
  if (use_cache) {
    head = ResultHead(c, params);
    deps.reserve(c.plan->scanned_rels.size());
    for (const std::string& name : c.plan->scanned_rels) {
      deps.emplace_back(name, snap.Version(name));
    }
    std::string rkey = ResultCache::ComposeKey(head, deps, c.plan->uses_dom,
                                               snap.Epoch());
    if (std::shared_ptr<const Relation> hit = state_->results.Lookup(rkey)) {
      return *hit;
    }
  }

  PlanPtr plan = c.plan;
  if (param_count_ > 0) {
    auto bound = BindPlanParams(c.plan, params);
    if (!bound.ok()) return bound.status();
    plan = *bound;
  }
  auto rel = incdb::Execute(plan, snap, ctx);
  if (!rel.ok()) return rel.status();
  // An injected drop here models a cache insert failing for lack of
  // memory: the execution already succeeded, so degrade gracefully by
  // returning the result uncached.
  if (use_cache && !INCDB_FAULT_DROPPED("result_cache.insert")) {
    // The *bound* plan rides along with maintainable entries — it is what
    // PropagateDelta walks on the next commit (param_count == 0).
    const bool maintainable = plan->maintainable && !plan->uses_dom;
    state_->results.Insert(head, std::make_shared<Relation>(*rel),
                           std::move(deps), c.plan->uses_dom, snap.Epoch(),
                           maintainable, maintainable ? plan : nullptr);
  }
  return rel;
}

StatusOr<Cursor> PreparedQuery::OpenCursor(
    const std::vector<Value>& params) const {
  return OpenCursor(params, ExecContext{});
}

StatusOr<Cursor> PreparedQuery::OpenCursor(const std::vector<Value>& params,
                                           const ExecContext& ctx) const {
  if (!valid()) return Status::InvalidArgument("PreparedQuery is empty");
  INCDB_RETURN_IF_ERROR(ValidateBindings(params, param_count_));
  Database snap = state_->db.Snapshot();
  INCDB_FAULT_POINT("session.snapshot_pin");
  auto compiled = FreshCompiled(snap);
  if (!compiled.ok()) return compiled.status();
  const Compiled& c = **compiled;
  if (ctx.limited()) INCDB_RETURN_IF_ERROR(ctx.Check());
  PlanPtr plan = c.plan;
  if (param_count_ > 0) {
    auto bound = BindPlanParams(c.plan, params);
    if (!bound.ok()) return bound.status();
    plan = *bound;
  }
  state_->cursors.fetch_add(1, std::memory_order_relaxed);

  auto impl = std::make_shared<Cursor::Impl>(state_, plan, std::move(snap));
  impl->ctx = ctx;
  impl->limited = ctx.limited();
  impl->max_tuples = impl->plan->opts.max_tuples;
  const bool set_semantics = impl->plan->mode != EvalMode::kBagNaive;

  // The maximal chain of streamable operators hanging off the root.
  auto streamable = [](PhysOp op) {
    switch (op) {
      case PhysOp::kFilterSel:
      case PhysOp::kFusedProjectFilter:
      case PhysOp::kProject:
      case PhysOp::kRename:
      case PhysOp::kDistinct:
        return true;
      default:
        return false;
    }
  };
  PhysPtr cur = plan->root;
  while (streamable(cur->op)) {
    impl->stages.push_back(cur.get());
    if (set_semantics && (cur->op == PhysOp::kProject ||
                          cur->op == PhysOp::kFusedProjectFilter)) {
      impl->dedup = true;  // distinct inputs may collapse: dedup at the top
    }
    cur = cur->left;
  }
  impl->distinct_seen.resize(impl->stages.size());

  if (cur->op == PhysOp::kScanView) {
    // The whole chain bottoms out at a base relation: borrow it in place
    // (from the pinned snapshot) and stream everything.
    auto view = impl->scans.Resolve(cur->rel_name, set_semantics);
    if (!view.ok()) return view.status();
    impl->base = *view;
    impl->streaming = true;
  } else {
    // Materialise the non-streamable remainder once; the chain above it
    // (if any) still streams window by window. The same context governs this
    // up-front work and the later drain: one deadline for the whole
    // cursor lifetime.
    auto rel = ExecuteNode(plan, cur, impl->snapshot, ctx);
    if (!rel.ok()) return rel.status();
    impl->base = RelationView::Own(std::move(*rel));
    impl->streaming = !impl->stages.empty();
  }

  Cursor out;
  out.impl_ = std::move(impl);
  return out;
}

size_t PreparedQuery::CountPlanOps(PhysOp op) const {
  if (!valid()) return 0;
  std::shared_ptr<const Compiled> c = std::atomic_load(&compiled_);
  return CountOps(*c->plan, op);
}

std::string PreparedQuery::Explain() const {
  if (!valid()) return "PreparedQuery(invalid)\n";
  std::shared_ptr<const Compiled> compiled = std::atomic_load(&compiled_);
  const Plan& plan = *compiled->plan;
  std::string out = "PreparedQuery[mode=";
  out += ModeName(mode_);
  out += ", params=" + std::to_string(param_count_) + "]\n";
  if (!sql_.empty()) out += "sql     : " + sql_ + "\n";
  out += "algebra : " + alg_->ToString() + "\n";
  out += "plan    :\n" + PlanToString(plan);
  static constexpr PhysOp kAllOps[] = {
      PhysOp::kScanView,      PhysOp::kFilterSel, PhysOp::kFusedProjectFilter,
      PhysOp::kProject,       PhysOp::kRename,    PhysOp::kHashJoin,
      PhysOp::kNLJoin,        PhysOp::kUnion,     PhysOp::kHashDiff,
      PhysOp::kHashIntersect, PhysOp::kDivision,  PhysOp::kUnifySemiJoin,
      PhysOp::kHashSemi,      PhysOp::kDom,       PhysOp::kDistinct};
  out += "ops     :";
  for (PhysOp op : kAllOps) {
    size_t n = CountOps(plan, op);
    if (n > 0) {
      out += " ";
      out += ToString(op);
      out += "=" + std::to_string(n);
    }
  }
  PlanCacheStats cs = state_->cache.stats();
  out += "\ncache   : hits=" + std::to_string(cs.hits) +
         " misses=" + std::to_string(cs.misses) +
         " evictions=" + std::to_string(cs.evictions) +
         " size=" + std::to_string(cs.size) + "/" +
         std::to_string(cs.capacity) + "\n";
  ResultCacheStats rs = state_->results.stats();
  out += "results : hits=" + std::to_string(rs.hits) +
         " misses=" + std::to_string(rs.misses) +
         " evictions=" + std::to_string(rs.evictions) +
         " invalidations=" + std::to_string(rs.invalidations) +
         " maintained=" + std::to_string(rs.maintained) +
         " late_drops=" + std::to_string(rs.late_drops) +
         " size=" + std::to_string(rs.size) + "/" +
         std::to_string(rs.capacity) + "\n";
  return out;
}

// --- Session -----------------------------------------------------------------

Session::Session(Database db, EvalOptions opts)
    : state_(std::make_shared<SessionState>(std::move(db), opts)) {}

const Database& Session::db() const { return state_->db; }
Database& Session::mutable_db() { return state_->db; }

void Session::Put(const std::string& name, Relation rel) {
  {
    // Replacing a relation with identical contents would churn its version
    // stamp and invalidate every dependent cached result for nothing; skip
    // the write entirely. (Pin a snapshot so the compared rows stay alive.)
    Database snap = state_->db.Snapshot();
    const Relation* old = snap.Find(name);
    if (old != nullptr && old->IdenticalTo(rel)) return;
  }
  state_->db.Put(name, std::move(rel));
  state_->results.InvalidateRelation(name, state_->db.Version(name));
}

Status Session::Drop(const std::string& name) {
  INCDB_RETURN_IF_ERROR(state_->db.Drop(name));
  // A dropped relation has no version stamp; the post-drop epoch is a
  // valid floor because versions and epochs draw from one counter.
  state_->results.InvalidateRelation(name, state_->db.Epoch());
  return Status::OK();
}

namespace {

/// Tries to upgrade one extracted cache entry across the commit described
/// by `info`. Non-OK means "could not maintain" — the caller counts the
/// entry as invalidated (it is already out of the cache).
Status MaintainOne(SessionState& state, const CommitInfo& info,
                   ResultCache::Maintainable& e) {
  // Every dependency stamp must match the pre-commit snapshot exactly —
  // an entry computed against any older state must not absorb this delta
  // (the commits in between were never propagated into it). Touched
  // dependencies must additionally carry a row-level delta: nullopt
  // records a drop, schema change or other non-delta-expressible edit.
  for (const auto& [name, ver] : e.deps) {
    if (info.pre.Version(name) != ver) {
      return Status::FailedPrecondition("dependency '" + name +
                                        "' stamp predates the commit");
    }
    auto dit = info.deltas.find(name);
    if (dit != info.deltas.end() && !dit->second.has_value()) {
      return Status::FailedPrecondition("dependency '" + name +
                                        "' has no row-level delta");
    }
  }
  auto delta = PropagateDelta(e.plan, info);
  if (!delta.ok()) return delta.status();
  // The entry left the cache, but a pre-commit Lookup may still share the
  // relation with a reader; never mutate a result someone else holds.
  std::shared_ptr<Relation> target = e.result.use_count() == 1
                                         ? std::move(e.result)
                                         : std::make_shared<Relation>(*e.result);
  INCDB_RETURN_IF_ERROR(ApplyResultDelta(
      target.get(), *delta, e.plan->mode != EvalMode::kBagNaive));
  for (auto& [name, ver] : e.deps) {
    if (info.deltas.count(name) > 0) ver = info.post.Version(name);
  }
  e.result = std::move(target);
  state.results.FinishMaintenance(std::move(e));
  return Status::OK();
}

/// Post-commit result-cache sweep: maintainable dependent entries get the
/// commit's row-level deltas propagated through their plans and applied in
/// place; everything else (and every failure) falls back to invalidation.
void MaintainResultCache(SessionState& state, const CommitInfo& info) {
  std::vector<std::pair<std::string, uint64_t>> floors;
  floors.reserve(info.deltas.size());
  for (const auto& [name, delta] : info.deltas) {
    const uint64_t v = info.post.Version(name);
    floors.emplace_back(name, v != 0 ? v : info.post.Epoch());
  }
  auto candidates = state.results.BeginMaintenance(floors, info.post.Epoch());
  for (ResultCache::Maintainable& e : candidates) {
    if (!MaintainOne(state, info, e).ok()) state.results.NoteInvalidated();
  }
}

}  // namespace

Status Session::Mutate(const std::function<Status(Database::Txn&)>& fn) {
  Database::Txn txn = state_->db.Begin();
  INCDB_RETURN_IF_ERROR(fn(txn));
  if (state_->opts.use_result_cache && state_->opts.use_result_maintenance) {
    CommitInfo info;
    INCDB_RETURN_IF_ERROR(state_->db.Commit(std::move(txn), &info));
    MaintainResultCache(*state_, info);
    return Status::OK();
  }
  // Touched() must be read before Commit consumes the transaction.
  std::vector<std::string> touched = txn.Touched();
  INCDB_RETURN_IF_ERROR(state_->db.Commit(std::move(txn)));
  for (const std::string& name : touched) {
    const uint64_t v = state_->db.Version(name);
    state_->results.InvalidateRelation(name,
                                       v != 0 ? v : state_->db.Epoch());
  }
  return Status::OK();
}

const EvalOptions& Session::options() const { return state_->opts; }
void Session::set_options(const EvalOptions& opts) { state_->opts = opts; }
void Session::set_max_valuations(uint64_t budget) {
  state_->max_valuations = budget;
}

StatusOr<PreparedQuery> Session::Prepare(const std::string& sql,
                                         EvalMode mode) {
  auto parsed = ParseSql(sql);
  if (!parsed.ok()) return AnnotateSqlError(parsed.status(), sql);
  auto alg = SqlToAlgebra(*parsed, state_->db);
  if (!alg.ok()) return AnnotateSqlError(alg.status(), sql);
  return PrepareAlgebra(*alg, mode, sql);
}

StatusOr<PreparedQuery> Session::Prepare(const AlgPtr& q, EvalMode mode) {
  return PrepareAlgebra(q, mode, /*sql=*/"");
}

StatusOr<PreparedQuery> Session::PrepareAlgebra(AlgPtr q, EvalMode mode,
                                                std::string sql) {
  // Pin one snapshot for the whole prepare: the compiled plan, the
  // result-cache key prefix and the recorded scan schemas must agree on
  // what the database looked like.
  Database snap = state_->db.Snapshot();
  auto plan = state_->cache.CompileCached(q, mode, state_->opts, snap);
  if (!plan.ok()) return plan.status();
  state_->prepares.fetch_add(1, std::memory_order_relaxed);
  auto compiled = std::make_shared<PreparedQuery::Compiled>();
  compiled->plan = *plan;
  compiled->key_prefix = PlanCacheKey(q, mode, state_->opts, snap);
  for (const std::string& name : (*plan)->scanned_rels) {
    const Relation* rel = snap.Find(name);
    // Compilation resolved every scan against this snapshot, so the
    // relation exists; guard anyway rather than crash on an engine bug.
    if (rel == nullptr) {
      return Status::Internal("prepared scan of unknown relation '" + name +
                              "'");
    }
    compiled->scan_schemas.emplace_back(name, rel->attrs());
  }
  PreparedQuery pq;
  pq.state_ = state_;
  pq.alg_ = q;
  pq.compiled_ = std::move(compiled);
  pq.out_attrs_ = (*plan)->root->attrs;
  pq.sql_ = std::move(sql);
  pq.mode_ = mode;
  pq.param_count_ = (*plan)->param_count;
  return pq;
}

StatusOr<Relation> Session::Execute(const std::string& sql,
                                    const std::vector<Value>& params,
                                    EvalMode mode) {
  auto pq = Prepare(sql, mode);
  if (!pq.ok()) return pq.status();
  return pq->Execute(params);
}

namespace {
/// Shared prologue of the Certain* wrappers: strict binding validation,
/// then algebra-level substitution (the exact sweeps and the Fig. 2
/// translations must never see a placeholder — QueryConstants feeds Dom
/// extras).
StatusOr<AlgPtr> BindForCertain(const AlgPtr& q,
                                const std::vector<Value>& params) {
  INCDB_RETURN_IF_ERROR(ValidateBindings(params, ParamCount(q)));
  return BindParams(q, params);
}
}  // namespace

StatusOr<Relation> Session::CertainIntersection(
    const AlgPtr& q, const std::vector<Value>& params) {
  auto bound = BindForCertain(q, params);
  if (!bound.ok()) return bound.status();
  CertainOptions copts;
  copts.eval = state_->opts;
  copts.max_valuations = state_->max_valuations;
  return CertIntersection(*bound, state_->db.Snapshot(), copts);
}

StatusOr<Relation> Session::CertainWithNulls(const AlgPtr& q,
                                             const std::vector<Value>& params) {
  auto bound = BindForCertain(q, params);
  if (!bound.ok()) return bound.status();
  CertainOptions copts;
  copts.eval = state_->opts;
  copts.max_valuations = state_->max_valuations;
  return CertWithNulls(*bound, state_->db.Snapshot(), copts);
}

StatusOr<Relation> Session::CertainPlus(const AlgPtr& q,
                                        const std::vector<Value>& params) {
  auto bound = BindForCertain(q, params);
  if (!bound.ok()) return bound.status();
  return EvalPlus(*bound, state_->db.Snapshot(), state_->opts);
}

StatusOr<Relation> Session::CertainMaybe(const AlgPtr& q,
                                         const std::vector<Value>& params) {
  auto bound = BindForCertain(q, params);
  if (!bound.ok()) return bound.status();
  return EvalMaybe(*bound, state_->db.Snapshot(), state_->opts);
}

SessionStats Session::stats() const {
  SessionStats s;
  s.prepares = state_->prepares.load(std::memory_order_relaxed);
  s.executes = state_->executes.load(std::memory_order_relaxed);
  s.cursors_opened = state_->cursors.load(std::memory_order_relaxed);
  s.stale_retries = state_->stale_retries.load(std::memory_order_relaxed);
  s.plan_cache = state_->cache.stats();
  s.result_cache = state_->results.stats();
  return s;
}

void Session::ClearPlanCache() { state_->cache.Clear(); }
void Session::ClearResultCache() { state_->results.Clear(); }

}  // namespace incdb
