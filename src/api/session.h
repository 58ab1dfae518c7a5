#ifndef INCDB_API_SESSION_H_
#define INCDB_API_SESSION_H_

/// \file session.h
/// \brief The embedded-engine facade: Session + PreparedQuery + Cursor.
///
/// Everything the library exposes as loose free functions — the SQL
/// frontend (sql/translate.h), the three evaluation disciplines
/// (eval/eval.h), the physical-plan layer with its query-identity cache
/// (eval/plan.h, eval/plan_cache.h) and the certain-answer machinery
/// (certain/certain.h, approx/approx.h) — lives behind one session object
/// here:
///
///   Session sess(std::move(db));
///   auto pq = sess.Prepare(
///       "SELECT oid FROM Orders WHERE price > ? AND oid NOT IN "
///       "( SELECT oid FROM Payments )");
///   auto r1 = pq->Execute({Value::Int(30)});   // one compile ...
///   auto r2 = pq->Execute({Value::Int(40)});   // ... shared by N bindings
///   std::puts(pq->Explain().c_str());          // plan + cache stats
///
/// **Prepared, parameterized queries.** `?` placeholders in the SQL text
/// (or Value::Param leaves in a hand-built algebra tree) compile into a
/// plan *template* cached by the parameterized query shape, so N distinct
/// bindings of one template cost one Compile total — binding is a
/// clone-substitute pass over the affected plan nodes (BindPlanParams),
/// two orders of magnitude cheaper than parse + translate + compile.
///
/// **Streaming cursors.** OpenCursor() delivers rows one at a time. The
/// maximal chain of streamable operators at the plan root (filters,
/// projections, renames, DISTINCT) is evaluated lazily over a borrowed
/// scan or the materialised remainder, one small window of input rows at
/// a time through the executor's own kernels, so exists/top-k style
/// consumers of filter-shaped queries stop without paying for the full
/// result. Accumulating every (row, count) a cursor delivers yields
/// exactly Execute()'s relation.
///
/// **Snapshot isolation.** Every Execute()/OpenCursor() pins a snapshot of
/// the session database (core/database.h) and runs entirely against it:
/// a writer committing mid-query can neither tear the result nor free the
/// rows a streaming Cursor is borrowing. Mutations go through Put()/
/// Drop()/Mutate() (a batched transaction), which publish atomically —
/// readers observe either the whole batch or none of it. A mutation that
/// drops or re-schemas a relation a PreparedQuery scans makes that query
/// *stale*: subsequent Execute/OpenCursor calls return a structured
/// kFailedPrecondition error instead of reading freed or mis-shaped rows.
///
/// **Result cache.** Repeat executions of a prepared query with equal
/// bindings against unchanged data are served from a data-fingerprint-
/// aware result cache (eval/result_cache.h): the key combines the plan
/// identity, the binding digest and the version stamps of every scanned
/// relation, so a commit to one relation invalidates exactly the entries
/// that scanned it. Toggle with EvalOptions::use_result_cache; stats are
/// in SessionStats::result_cache and Explain().
///
/// **Threading.** One PreparedQuery may Execute()/OpenCursor() from many
/// threads concurrently, and Put/Drop/Mutate may run concurrently with
/// them: the template plan is immutable, bindings make private copies,
/// queries run on pinned snapshots, and both session caches are
/// internally locked. Only set_options/mutable_db are unsynchronised —
/// sequence those externally.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "algebra/builder.h"
#include "certain/certain.h"
#include "core/database.h"
#include "core/exec_context.h"
#include "core/relation.h"
#include "core/status.h"
#include "eval/eval.h"
#include "eval/plan.h"
#include "eval/plan_cache.h"
#include "eval/result_cache.h"

namespace incdb {

namespace internal {
struct SessionState;
}  // namespace internal

/// Counters of one session's activity; plan_cache covers the session's
/// private compiled-plan cache (prepares miss once per query shape),
/// result_cache the data-fingerprint-aware result cache behind
/// PreparedQuery::Execute.
struct SessionStats {
  uint64_t prepares = 0;
  uint64_t executes = 0;
  uint64_t cursors_opened = 0;
  /// Times a stale PreparedQuery transparently re-prepared itself and
  /// retried after its scanned relations reappeared with compatible
  /// schemas (see PreparedQuery::Execute).
  uint64_t stale_retries = 0;
  PlanCacheStats plan_cache;
  ResultCacheStats result_cache;
};

/// \brief Streaming row-at-a-time view of one prepared-query execution.
///
/// Obtained from PreparedQuery::OpenCursor. Next() advances to the next
/// (tuple, multiplicity) delivery; row() is valid until the next Next().
/// The cursor keeps its session alive and pins the database snapshot it
/// opened against, so it streams one consistent version even if writers
/// commit (or drop the scanned relations) while it is being drained.
class Cursor {
 public:
  Cursor() = default;

  /// Advances to the next row; false once the stream is exhausted *or*
  /// aborted — check status() to tell the two apart.
  bool Next();
  /// Terminal stream status: OK while healthy (including normal
  /// exhaustion); kDeadlineExceeded / kCancelled when the ExecContext the
  /// cursor was opened with fired mid-drain, kResourceExhausted when the
  /// streamed deliveries exceeded EvalOptions::max_tuples. Once non-OK,
  /// Next() keeps returning false.
  const Status& status() const;
  /// The current tuple (after a successful Next()).
  const Tuple& row() const;
  /// Multiplicity of the current delivery. Under set-semantics modes this
  /// is always 1; under bags one tuple may arrive in several deliveries
  /// whose counts sum to its multiplicity.
  uint64_t count() const;
  /// Output attribute names.
  const std::vector<std::string>& attrs() const;
  /// True when the root operator chain is evaluated lazily per pull
  /// (false: the query shape forced full materialisation up front).
  bool streaming() const;

 private:
  friend class PreparedQuery;
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

/// \brief A compiled, possibly parameterized query bound to its session.
///
/// Cheap to copy (shared immutable state). Obtained from
/// Session::Prepare; executable many times with different bindings.
class PreparedQuery {
 public:
  PreparedQuery() = default;

  bool valid() const { return compiled_ != nullptr; }
  /// Number of parameter bindings Execute/OpenCursor expect.
  size_t param_count() const { return param_count_; }
  EvalMode mode() const { return mode_; }
  /// The translated (still parameterized) algebra tree.
  const AlgPtr& algebra() const { return alg_; }
  /// Output attribute names of the result relation.
  const std::vector<std::string>& output_attrs() const { return out_attrs_; }
  /// The SQL text this query was prepared from (empty for algebra input).
  const std::string& sql() const { return sql_; }

  /// Materialised execution under the given bindings, against a snapshot
  /// of the session database pinned at call time. Bindings must be
  /// exactly param_count() constants (nulls/params are type errors).
  /// Repeat calls with equal bindings on unchanged data are result-cache
  /// hits (EvalOptions::use_result_cache).
  ///
  /// **Staleness.** If a scanned relation was dropped or schema-changed
  /// since Prepare, the query transparently re-prepares itself *once*
  /// against the pinned snapshot and retries, provided the recompiled
  /// plan is drop-in compatible (same output attributes and parameter
  /// count); the retry is counted in SessionStats::stale_retries. When
  /// the relation is still missing or the recompiled shape is
  /// incompatible, the structured kFailedPrecondition stale error is
  /// returned as before.
  StatusOr<Relation> Execute(const std::vector<Value>& params = {}) const;
  /// As above, with a deadline / cancellation / soft-memory context
  /// observed throughout the execution (core/exec_context.h).
  StatusOr<Relation> Execute(const std::vector<Value>& params,
                             const ExecContext& ctx) const;

  /// Streaming execution: rows are pulled through the root operator chain
  /// on demand (see Cursor). Stale handling as in Execute.
  StatusOr<Cursor> OpenCursor(const std::vector<Value>& params = {}) const;
  /// As above with an ExecContext; the deadline covers the *whole drain*:
  /// materialisation of the non-streamable remainder at open time plus
  /// every subsequent Next(), which checks the context on an amortized
  /// schedule and reports expiry through Cursor::status().
  StatusOr<Cursor> OpenCursor(const std::vector<Value>& params,
                              const ExecContext& ctx) const;

  /// Human-readable plan report: the algebra, the physical operator DAG
  /// (PlanToString), per-operator counts (CountOps) and the session's
  /// plan-cache statistics.
  std::string Explain() const;

  /// Number of physical operators of one kind in the compiled template
  /// (plan-shape assertions; see CountOps in eval/plan.h).
  size_t CountPlanOps(PhysOp op) const;

 private:
  friend class Session;

  /// The refreshable compilation artefacts, swapped as a unit when a
  /// stale query re-prepares itself: the plan template, the result-cache
  /// key prefix and the scan schemas the stale guard compares against.
  /// Held behind a shared_ptr<const> accessed with std::atomic_load /
  /// std::atomic_store so concurrent Execute/OpenCursor calls (and their
  /// retries) never observe a torn mix of old and new artefacts.
  struct Compiled;

  /// Stale guard: verifies every relation `c` scans still exists in
  /// `snap` with the schema it had at (re-)Prepare time.
  static Status CheckFresh(const Database& snap, const Compiled& c);
  /// Recompiles the template against `snap`; non-OK when compilation
  /// fails or the new plan is not drop-in compatible with this query's
  /// public contract (output attrs, parameter count).
  StatusOr<std::shared_ptr<const Compiled>> Refreshed(
      const Database& snap) const;
  /// Loads compiled_, applying the stale guard + retry-once protocol
  /// against `snap`; on a successful retry bumps stale_retries.
  StatusOr<std::shared_ptr<const Compiled>> FreshCompiled(
      const Database& snap) const;
  /// Query + binding identity head of the result-cache key: plan-cache
  /// key prefix + binding digest. The data-identity suffix (scanned
  /// version stamps, database epoch for Dom plans) is appended by
  /// ResultCache::ComposeKey.
  static std::string ResultHead(const Compiled& c,
                                const std::vector<Value>& params);

  std::shared_ptr<internal::SessionState> state_;
  AlgPtr alg_;
  /// Refreshable artefacts (see Compiled); mutable so the transparent
  /// stale retry can install the recompiled plan from const entry points.
  mutable std::shared_ptr<const Compiled> compiled_;
  std::vector<std::string> out_attrs_;
  std::string sql_;
  EvalMode mode_ = EvalMode::kSetSql;
  size_t param_count_ = 0;
};

/// \brief An embedded-engine session owning a database, per-session
/// evaluation options and a private compiled-plan cache.
class Session {
 public:
  /// Takes ownership of `db`; `opts` are the session-wide evaluation
  /// defaults (threads, rewrite toggles, budgets) applied to every
  /// Prepare.
  explicit Session(Database db = {}, EvalOptions opts = {});

  /// Copying a Session would alias mutable state ambiguously; pass
  /// Session& (PreparedQuery/Cursor hold the shared state safely).
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  Session(Session&&) = default;
  Session& operator=(Session&&) = default;

  const Database& db() const;
  /// Adds or replaces a relation, atomically: safe while other threads
  /// Execute/OpenCursor (they keep their pinned snapshots). A schema
  /// change invalidates affected plan-cache entries (scanned schemas are
  /// part of the plan key) and makes prepared queries that scanned the
  /// old schema stale; any change eagerly drops the result-cache entries
  /// that depend on the relation. Putting a relation identical to the
  /// current one (same attrs, rows and counts) is a no-op: the version
  /// stamp keeps and cached results survive.
  void Put(const std::string& name, Relation rel);
  /// Removes a relation atomically (NotFound when absent). Prepared
  /// queries scanning it turn stale; dependent result-cache entries drop.
  Status Drop(const std::string& name);
  /// Batched transactional mutation: `fn` stages Put/Drop/Mutable (and
  /// row-level Insert/Remove) calls on a Database::Txn pinned to the
  /// current state; on OK the batch commits atomically (concurrent
  /// readers see all of it or none). Dependent result-cache entries of
  /// *maintainable* plans are upgraded in place by propagating the
  /// commit's row-level deltas (eval/delta.h, gated on
  /// EvalOptions::use_result_maintenance); the rest are invalidated. A
  /// non-OK return discards the staged batch and is passed through.
  Status Mutate(const std::function<Status(Database::Txn&)>& fn);
  /// Unsynchronised escape hatch: direct mutation must not race with
  /// concurrent queries (prefer Put/Drop/Mutate) and bypasses the
  /// result-cache invalidation hook (version stamps still keep cached
  /// reads correct).
  Database& mutable_db();

  const EvalOptions& options() const;
  /// Replaces the session defaults; affects subsequent Prepare calls
  /// (already-prepared queries keep the options they compiled with).
  void set_options(const EvalOptions& opts);

  /// Parse + translate + compile SQL into a prepared query. `?`
  /// placeholders become parameters bound at execute time. Errors carry
  /// byte offsets and a caret-annotated snippet of the offending token.
  StatusOr<PreparedQuery> Prepare(const std::string& sql,
                                  EvalMode mode = EvalMode::kSetSql);
  /// Prepare a hand-built algebra tree (Value::Param leaves supported).
  StatusOr<PreparedQuery> Prepare(const AlgPtr& q,
                                  EvalMode mode = EvalMode::kSetSql);

  /// One-shot convenience: Prepare + Execute.
  StatusOr<Relation> Execute(const std::string& sql,
                             const std::vector<Value>& params = {},
                             EvalMode mode = EvalMode::kSetSql);

  // --- Certain answers, behind the same facade ---------------------------
  //
  // The exact (brute-force) notions and the Fig. 2(b) Desugar-based
  // approximations, with parameter bindings substituted into the algebra
  // before translation. All respect the session EvalOptions.

  /// cert∩(Q, D) — exact intersection-based certain answers.
  StatusOr<Relation> CertainIntersection(const AlgPtr& q,
                                         const std::vector<Value>& params = {});
  /// cert⊥(Q, D) — exact certain answers with nulls.
  StatusOr<Relation> CertainWithNulls(const AlgPtr& q,
                                      const std::vector<Value>& params = {});
  /// Q+ — the certain-answer under-approximation (sound, PTIME).
  StatusOr<Relation> CertainPlus(const AlgPtr& q,
                                 const std::vector<Value>& params = {});
  /// Q? — the possible-answer over-approximation (complete, PTIME).
  StatusOr<Relation> CertainMaybe(const AlgPtr& q,
                                  const std::vector<Value>& params = {});

  /// Budget for the exact Certain* sweeps (default CertainOptions).
  void set_max_valuations(uint64_t budget);

  SessionStats stats() const;
  void ClearPlanCache();
  void ClearResultCache();

 private:
  StatusOr<PreparedQuery> PrepareAlgebra(AlgPtr q, EvalMode mode,
                                         std::string sql);

  std::shared_ptr<internal::SessionState> state_;
};

/// Rewrites an "... at offset N" error into a multi-line message quoting
/// `sql` with a caret under the offending byte. Statuses without an offset
/// pass through unchanged. Exposed for tests; Session::Prepare applies it
/// to every parse/translate error.
Status AnnotateSqlError(const Status& st, const std::string& sql);

}  // namespace incdb

#endif  // INCDB_API_SESSION_H_
