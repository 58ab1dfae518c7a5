#ifndef PERFBENCH_ENGINE_H_
#define PERFBENCH_ENGINE_H_

// Runs the workload's operations against incdb, one of two ways:
//
//  * untraced (no recorder): through the public Session / PreparedQuery /
//    Cursor API with default EvalOptions — what a user of the engine calls;
//  * traced (with a SpanRecorder): the same operations, composed from the
//    public functions of each layer the Session facade calls (sql, plan
//    cache, plan, executor, result cache, delta, database), with a span
//    around each call. Cursors are opened through the Session in both modes.
//
// The traced path mirrors api/session.cpp step for step; the driver checks
// that it returns exactly what the Session returned for every operation.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/session.h"
#include "eval/plan_cache.h"
#include "eval/result_cache.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

struct Outcome {
  incdb::Status status = incdb::Status::OK();
  /// Reads: the result relation (cursor ops: the rows delivered).
  incdb::Relation result;
};

/// Work counted at the traced layer boundaries (ratios need the counts
/// where the work happens, not just span times).
struct LayerCounters {
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  uint64_t result_lookups = 0;
  uint64_t result_hits = 0;
  uint64_t exec_calls = 0;
  uint64_t exec_input_rows = 0;
  uint64_t exec_rows_out = 0;
  uint64_t cursor_next_calls = 0;
  uint64_t maintained = 0;
  uint64_t invalidated = 0;
};

class Engine {
 public:
  /// Set-up: generates the workload's database for `seed`, opens a Session
  /// over it and prepares every template. `rec` selects the traced path
  /// (spans of set-up are recorded under kSetupOp).
  static incdb::Status Create(const WorkloadSpec& spec, uint64_t seed,
                              SpanRecorder* rec, std::unique_ptr<Engine>* out);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Outcome Run(const Op& op);

  incdb::Session& session() { return sess_; }
  /// The parameterized algebra of a prepared, cursor or certain template.
  const incdb::AlgPtr& Algebra(uint32_t t) const;
  /// Opens a cursor through the Session (for output checks).
  incdb::StatusOr<incdb::Cursor> OpenCursor(
      uint32_t t, const std::vector<incdb::Value>& params) const;

  /// Traced path only: executor time of the most recent kExecute-style
  /// plan run, and a side measurement (outside any operation) of the
  /// template's SQL-3VL plan under `params` — the Q+ overhead baseline.
  int64_t last_exec_ns() const { return last_exec_ns_; }
  int64_t TimeSqlExec(uint32_t t, const std::vector<incdb::Value>& params);

  /// Counters since the last reset; maintained/invalidated are the traced
  /// result cache's totals.
  LayerCounters counters() const;
  void ResetCounters() { counters_ = LayerCounters{}; }

 private:
  /// What PreparedQuery keeps per template, rebuilt from the layer APIs.
  struct Prepared {
    incdb::AlgPtr alg;
    incdb::PlanPtr plan;
    std::string key_prefix;
  };

  Engine(const WorkloadSpec& spec, incdb::Database db, SpanRecorder* rec);

  incdb::Status Prepare();
  Outcome RunSession(const Op& op);
  Outcome RunTraced(const Op& op);

  // Traced steps (each mirrors a piece of api/session.cpp).
  incdb::StatusOr<Prepared> TracedPrepare(const std::string& sql,
                                          incdb::EvalMode mode);
  incdb::StatusOr<incdb::PlanPtr> TracedCompile(incdb::PlanCache& cache,
                                                const incdb::AlgPtr& q,
                                                incdb::EvalMode mode,
                                                const incdb::Database& snap);
  incdb::StatusOr<incdb::Relation> TracedRunPlan(const incdb::PlanPtr& plan,
                                                 const incdb::Database& snap);
  incdb::StatusOr<incdb::Relation> TracedExecute(
      const Prepared& p, const std::vector<incdb::Value>& params);
  incdb::StatusOr<incdb::Relation> TracedCertain(
      const incdb::AlgPtr& q, bool plus,
      const std::vector<incdb::Value>& params);
  incdb::Status TracedMutate(const std::vector<RowChange>& changes);
  void TracedMaintain(const incdb::CommitInfo& info);
  incdb::Database TracedSnapshot();

  Outcome RunCursor(uint32_t t, const std::vector<incdb::Value>& params);

  const WorkloadSpec& spec_;
  incdb::Session sess_;
  SpanRecorder* rec_;
  /// Session-prepared queries (untraced: every non-one-shot template;
  /// traced: cursor templates only).
  std::vector<incdb::PreparedQuery> prepared_;
  /// Traced path: layer-built equivalents of prepared_, the private caches
  /// a Session owns, and a stand-in for the process-wide plan cache the
  /// Certain* calls compile through (so a traced engine running beside an
  /// untraced one never shares its compiled plans).
  std::vector<Prepared> shadow_;
  incdb::PlanCache plan_cache_;
  incdb::ResultCache results_;
  incdb::PlanCache certain_plans_;
  LayerCounters counters_;
  int64_t last_exec_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_ENGINE_H_
