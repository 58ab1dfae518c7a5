// Physical-plan executor (see eval/plan.h for the layer contract).
//
// Operators exchange RelationViews: leaf scans borrow the database rows in
// place, everything that materialises owns its output. The partitioned
// operators split work across a process-wide worker pool
// (EvalOptions::num_threads) in two flavours:
//
//  * the hash join partitions build and probe by key-hash prefix and
//    merges partition outputs in partition-index order — deterministic for
//    a fixed thread count and always the same *relation* as sequential;
//  * nested-loop join, difference/NOT-IN and ⋉⇑ split the *left* rows into
//    contiguous chunks and merge chunk outputs in chunk order, which
//    reproduces the exact sequential insertion order at any thread count.

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/exec_context.h"
#include "core/fault.h"
#include "eval/eval.h"
#include "eval/kernel.h"
#include "eval/parallel_policy.h"
#include "eval/plan.h"
#include "eval/unify_index.h"

namespace incdb {

StatusOr<RelationView> ScanResolver::Resolve(const std::string& name,
                                             bool collapse_to_set) {
  INCDB_FAULT_POINT("scan.resolve");
  const Relation* found = db_->Find(name);
  if (found == nullptr) {
    return Status::NotFound("no relation named " + name);
  }
  const Relation& rel = *found;
  if (!collapse_to_set) return RelationView::Borrow(rel);
  // The IsSet() scan and any collapse run once per relation; repeated
  // resolutions (the FO evaluator re-resolves inside quantifier loops)
  // hit the cached decision.
  auto it = collapsed_.find(name);
  if (it == collapsed_.end()) {
    // Base relations are usually sets already, in which case the scan is
    // a pure borrow (cached as null); otherwise the collapsed copy is
    // materialised once.
    std::unique_ptr<Relation> copy;
    if (!rel.IsSet()) copy = std::make_unique<Relation>(rel.ToSet());
    it = collapsed_.emplace(name, std::move(copy)).first;
  }
  return RelationView::Borrow(it->second ? *it->second : rel);
}

namespace {

/// \brief Process-wide worker pool for the partitioned operators (hash
/// join, nested-loop join, difference/NOT-IN, ⋉⇑).
///
/// Workers are spawned lazily up to the largest num_threads ever requested
/// (capped) and persist for the process lifetime, so repeated evaluations
/// pay no thread-spawn cost. The calling thread participates in every
/// batch; tasks never enqueue tasks, so the pool cannot deadlock.
class ExecPool {
 public:
  static ExecPool& Get() {
    static ExecPool* pool = new ExecPool();  // leaked: workers never join
    return *pool;
  }

  /// Runs fn(0) .. fn(n_tasks-1) using up to n_threads threads (including
  /// the caller). Returns after every task body has completed.
  void Run(size_t n_tasks, size_t n_threads, const std::function<void(size_t)>& fn) {
    if (n_tasks == 0) return;
    size_t helpers = std::min(n_threads > 0 ? n_threads - 1 : 0, n_tasks - 1);
    helpers = std::min(helpers, kMaxWorkers);
    if (helpers == 0) {
      for (size_t i = 0; i < n_tasks; ++i) fn(i);
      return;
    }
    auto batch = std::make_shared<TaskBatch>();
    batch->fn = &fn;
    batch->total = n_tasks;
    batch->remaining.store(n_tasks, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(mu_);
      while (n_workers_ < helpers) {
        std::thread(&ExecPool::WorkerLoop, this).detach();
        ++n_workers_;
      }
      current_ = batch;
      ++generation_;
    }
    work_cv_.notify_all();
    Work(*batch);
    std::unique_lock<std::mutex> lk(batch->done_mu);
    batch->done_cv.wait(lk, [&] {
      return batch->remaining.load(std::memory_order_acquire) == 0;
    });
  }

 private:
  static constexpr size_t kMaxWorkers = 15;

  struct TaskBatch {
    const std::function<void(size_t)>* fn = nullptr;
    size_t total = 0;
    std::atomic<size_t> next{0};
    std::atomic<size_t> remaining{0};
    std::mutex done_mu;
    std::condition_variable done_cv;
  };

  static void Work(TaskBatch& batch) {
    size_t i;
    while ((i = batch.next.fetch_add(1, std::memory_order_relaxed)) <
           batch.total) {
      (*batch.fn)(i);
      if (batch.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lk(batch.done_mu);
        batch.done_cv.notify_all();
      }
    }
  }

  void WorkerLoop() {
    uint64_t seen = 0;
    while (true) {
      std::shared_ptr<TaskBatch> batch;
      {
        std::unique_lock<std::mutex> lk(mu_);
        work_cv_.wait(lk, [&] { return generation_ != seen; });
        seen = generation_;
        batch = current_;
      }
      if (batch) Work(*batch);
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::shared_ptr<TaskBatch> current_;
  uint64_t generation_ = 0;
  size_t n_workers_ = 0;
};

class Executor {
 public:
  Executor(const Plan& plan, const Database& db, const ExecContext& ctx)
      : plan_(plan), db_(db), scans_(db), ctx_(&ctx),
        limited_(ctx.limited()) {}

  StatusOr<Relation> Run() {
    // Fast-fail an already-expired deadline or pre-cancelled token before
    // any work is done.
    if (limited_) INCDB_RETURN_IF_ERROR(ctx_->Check());
    return RunNode(plan_.root);
  }

  /// Evaluates an arbitrary node of the plan's DAG and materialises it.
  StatusOr<Relation> RunNode(const PhysPtr& node) {
    auto out = Eval(node);
    if (!out.ok()) return out.status();
    // A still-borrowed result (bare scan, rename pass-through, distinct
    // over an already-set scan) was never charged by any materializing
    // operator — budget it here so max_tuples bounds every relation the
    // executor hands out, not just the ones it had to build.
    if (out->borrowed()) {
      INCDB_RETURN_IF_ERROR(Budget(out->TotalSize(), out->arity()));
    }
    INCDB_FAULT_POINT("exec.materialize");
    return std::move(*out).Materialize();
  }

 private:
  bool set_semantics() const { return plan_.mode != EvalMode::kBagNaive; }
  bool sql_mode() const { return plan_.mode == EvalMode::kSetSql; }

  /// Cancellation/deadline checkpoints amortize exactly like the 4096-row
  /// over-budget reports: one counter add per `rows` units of work, one
  /// real Check() (clock read + atomic load) per interval. An unlimited
  /// context costs a single predictable branch.
  static constexpr uint64_t kCheckpointInterval = 4096;

  Status Checkpoint(uint64_t rows = 1) {
    if (!limited_) return Status::OK();
    check_acc_ += rows;
    if (check_acc_ < kCheckpointInterval) return Status::OK();
    check_acc_ = 0;
    return ctx_->Check(mem_used_);
  }

  /// The window hook of the kernels (eval/kernel.h): one checkpoint per
  /// window or match run.
  auto Checker() {
    return [this](size_t units) { return Checkpoint(units); };
  }

  Status OverBudget(uint64_t used) const {
    StatusDetail d;
    d.budget_used = used;
    d.budget_limit = plan_.opts.max_tuples;
    return Status::ResourceExhausted("evaluation exceeded max_tuples=" +
                                     std::to_string(plan_.opts.max_tuples))
        .WithDetail(std::move(d));
  }

  Status Budget(uint64_t produced, size_t arity) {
    if (__builtin_add_overflow(produced_, produced, &produced_)) {
      produced_ = UINT64_MAX;  // past any max_tuples, including 2^64 − 1
      return OverBudget(produced_);
    }
    uint64_t bytes = 0;
    if (__builtin_mul_overflow(produced, arity * sizeof(Value), &bytes) ||
        __builtin_add_overflow(mem_used_, bytes, &mem_used_)) {
      mem_used_ = UINT64_MAX;
    }
    if (produced_ > plan_.opts.max_tuples) return OverBudget(produced_);
    // The soft memory budget is enforced on the same cadence as the tuple
    // budget: every materializing operator reports here.
    if (limited_ && ctx_->soft_mem_limit_bytes != 0) {
      return ctx_->Check(mem_used_);
    }
    return Status::OK();
  }

  /// True when this operator should split `left_rows` input rows across
  /// the pool (`weight` is the operator's work estimate; the per-op grain
  /// policy lives in eval/parallel_policy.h).
  bool UseChunkParallelism(size_t left_rows, size_t weight, ChunkOp op) const {
    return ChunkParallelismProfitable(plan_.opts.num_threads, left_rows,
                                      weight, plan_.opts.parallel_min_rows,
                                      op);
  }

  /// Rows per columnar window (≥ 1: Compile rejects 0).
  size_t batch_size() const { return plan_.opts.batch_size; }

  /// Runs fn(0) .. fn(P-1) on the pool. The partition count P is the
  /// determinism contract; the worker count is an execution resource,
  /// capped at the hardware parallelism (waking helpers a single-core box
  /// cannot run only adds context switches — the merge order is
  /// partition-indexed either way).
  template <typename Fn>
  void RunPartitions(size_t P, Fn&& fn) {
    size_t hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = P;
    ExecPool::Get().Run(P, std::min(P, hw), std::forward<Fn>(fn));
  }

  /// Runs work(chunk, begin, end) over num_threads contiguous chunks of
  /// [0, n) on the pool; chunk outputs merged in chunk index order
  /// reproduce the exact sequential row order. Returns per-chunk statuses.
  template <typename Fn>
  std::vector<Status> RunChunks(size_t n, Fn&& work) {
    const size_t P = plan_.opts.num_threads;
    std::vector<Status> stats(P, Status::OK());
    RunPartitions(P, [&](size_t p) {
      stats[p] = work(p, n * p / P, n * (p + 1) / P);
    });
    return stats;
  }

  /// Merges per-chunk emitted rows in chunk order. The rows must be
  /// distinct across all chunks (each is derived from a distinct left
  /// row), so the duplicate probe is skipped. Like every merge, it
  /// checkpoints per row: a deadline or Cancel() landing after the
  /// workers finish still stops the query.
  Status MergeChunksUnique(std::vector<std::vector<Relation::Row>>& parts,
                           Relation* out) {
    size_t total = 0;
    for (const auto& part : parts) total += part.size();
    out->Reserve(total);
    for (auto& part : parts) {
      for (auto& [t, c] : part) {
        INCDB_RETURN_IF_ERROR(Checkpoint());
        INCDB_RETURN_IF_ERROR(out->InsertUnique(std::move(t), c));
      }
    }
    return Status::OK();
  }

  /// Canonical merge for the parallel joins: partition outputs land in
  /// partition-index order. With a fused projection distinct pairs may
  /// collapse, so rows insert with the duplicate probe and multiplicities
  /// normalise at the end; without one the emitted pairs are globally
  /// distinct (each pair joins in exactly one partition) and the probe is
  /// skipped. Emitted multiplicities count against the budget; rows
  /// checkpoint as in MergeChunksUnique.
  StatusOr<RelationView> MergeJoinParts(
      std::vector<std::vector<Relation::Row>>& parts, const PhysNode& n) {
    Relation out(n.attrs);
    size_t emitted_rows = 0;
    uint64_t total = 0;
    for (const auto& part : parts) {
      emitted_rows += part.size();
      for (const auto& [t, c] : part) {
        if (__builtin_add_overflow(total, c, &total)) {
          return MultiplicityOverflow("join.merge", total, c);
        }
      }
    }
    out.Reserve(emitted_rows);
    for (auto& part : parts) {
      for (auto& [t, c] : part) {
        INCDB_RETURN_IF_ERROR(Checkpoint());
        if (n.fused_proj) {
          INCDB_RETURN_IF_ERROR(out.Insert(std::move(t), c));
        } else {
          INCDB_RETURN_IF_ERROR(out.InsertUnique(std::move(t), c));
        }
      }
    }
    INCDB_RETURN_IF_ERROR(Budget(total, n.attrs.size()));
    if (n.fused_proj && set_semantics()) out.CollapseCounts();
    return RelationView::Own(std::move(out));
  }

  StatusOr<RelationView> Eval(const PhysPtr& n) {
    // OR-expansion branches share their inputs; evaluate those once.
    auto rc = plan_.refcount.find(n.get());
    const bool shared = rc != plan_.refcount.end() && rc->second > 1;
    if (shared) {
      auto it = memo_.find(n.get());
      if (it != memo_.end()) return it->second;
    }
    auto out = EvalNode(*n);
    if (out.ok() && shared) memo_.emplace(n.get(), *out);
    return out;
  }

  StatusOr<RelationView> EvalNode(const PhysNode& n) {
    INCDB_FAULT_POINT("exec.node");
    switch (n.op) {
      case PhysOp::kScanView:
        return scans_.Resolve(n.rel_name, set_semantics());
      case PhysOp::kFilterSel:
      case PhysOp::kFusedProjectFilter:
      case PhysOp::kProject:
        return EvalWindow(n);
      case PhysOp::kRename: {
        auto in = Eval(n.left);
        if (!in.ok()) return in;
        return in->Renamed(n.attrs);
      }
      case PhysOp::kHashJoin:
      case PhysOp::kNLJoin:
        return EvalJoin(n);
      case PhysOp::kUnion:
        return EvalUnion(n);
      case PhysOp::kHashDiff:
        return EvalDifference(n);
      case PhysOp::kHashIntersect:
        return EvalIntersect(n);
      case PhysOp::kDivision:
        return EvalDivision(n);
      case PhysOp::kUnifySemiJoin:
        return EvalAntijoinUnify(n);
      case PhysOp::kHashSemi:
        return EvalSemiAnti(n);
      case PhysOp::kInPred:
        return EvalInPredicate(n);
      case PhysOp::kDom:
        return EvalDom(n);
      case PhysOp::kDistinct: {
        auto in = Eval(n.left);
        if (!in.ok()) return in;
        if (in->borrowed() && in->rel().IsSet()) return in;  // already a set
        INCDB_RETURN_IF_ERROR(Checkpoint(in->rows().size()));
        Relation out = std::move(*in).Materialize();
        out.CollapseCounts();
        INCDB_RETURN_IF_ERROR(Budget(out.TotalSize(), n.attrs.size()));
        return RelationView::Own(std::move(out));
      }
    }
    return Status::Internal("unknown physical operator");
  }

  /// σ, π∘σ and π: the input sweeps through the window kernel
  /// (eval/kernel.h) in batch_size windows, one checkpoint per window, and
  /// the output is sized by the rows kept. σ keeps a subset of distinct
  /// rows, so it appends without the duplicate probe; a projection may
  /// fold distinct rows together, so it probes and collapses under set
  /// semantics.
  StatusOr<RelationView> EvalWindow(const PhysNode& n) {
    auto in = Eval(n.left);
    if (!in.ok()) return in;
    Relation out(n.attrs);
    const bool select = n.op == PhysOp::kFilterSel;
    INCDB_RETURN_IF_ERROR(window_.Sweep(
        n, in->rows(), batch_size(), Checker(),
        [&out](size_t kept) { out.Reserve(kept); },
        [&out, select](const Tuple& t, uint64_t c) {
          return select ? out.InsertUnique(t, c) : out.Insert(t, c);
        }));
    INCDB_RETURN_IF_ERROR(Budget(out.TotalSize(), n.attrs.size()));
    if (n.op != PhysOp::kFilterSel && set_semantics()) out.CollapseCounts();
    return RelationView::Own(std::move(out));
  }

  StatusOr<RelationView> EvalUnion(const PhysNode& n) {
    auto l = Eval(n.left);
    if (!l.ok()) return l;
    auto r = Eval(n.right);
    if (!r.ok()) return r;
    uint64_t r_total = r->TotalSize();
    const std::vector<Relation::Row>& r_rows = r->rows();
    Relation out = std::move(*l).Materialize();
    out.Reserve(out.rows().size() + r_rows.size());
    for (const auto& [t, c] : r_rows) {
      INCDB_RETURN_IF_ERROR(Checkpoint());
      INCDB_RETURN_IF_ERROR(out.Insert(t, c));
    }
    INCDB_RETURN_IF_ERROR(Budget(r_total, n.attrs.size()));
    if (set_semantics()) out.CollapseCounts();
    return RelationView::Own(std::move(out));
  }

  StatusOr<RelationView> EvalDifference(const PhysNode& n) {
    auto l = Eval(n.left);
    if (!l.ok()) return l;
    auto r = Eval(n.right);
    if (!r.ok()) return r;
    const bool sql = sql_mode();
    // Under SQL NOT-IN semantics, right tuples involving nulls are the
    // only ones an all-constant left tuple cannot dismiss with one hash
    // lookup; collect them once.
    std::vector<const Tuple*> null_rows;
    if (sql) {
      for (const auto& [s, sc] : r->rows()) {
        if (s.HasNull()) null_rows.push_back(&s);
      }
    }
    // Multiplicity a left row keeps (0 drops it). Pure reads of the shared
    // right-side view and null_rows: safe to call from pool workers.
    auto kept_count = [&](const Tuple& t, uint64_t c) -> uint64_t {
      if (sql) {
        // NOT IN semantics: keep r̄ only if the comparison with *every*
        // tuple of the right side is certainly false (never t or u).
        // All-constant pairs compare t exactly when syntactically equal,
        // so an all-constant left tuple needs one hash lookup plus a scan
        // of the (typically few) null-involving right tuples; left tuples
        // involving nulls scan everything pairwise.
        if (t.AllConst()) {
          if (r->Contains(t)) return 0;
          for (const Tuple* s : null_rows) {
            if (SqlTupleEq(t, *s) != TV3::kF) return 0;
          }
          return 1;
        }
        for (const auto& [s, sc] : r->rows()) {
          if (SqlTupleEq(t, s) != TV3::kF) return 0;
        }
        return 1;
      }
      uint64_t rc = r->Count(t);
      if (set_semantics()) return rc == 0 ? 1 : 0;
      return c > rc ? c - rc : 0;  // bag monus
    };

    const std::vector<Relation::Row>& lrows = l->rows();
    Relation out(n.attrs);
    if (UseChunkParallelism(lrows.size(), lrows.size() + r->rows().size(),
                            ChunkOp::kDifference)) {
      INCDB_FAULT_POINT("exec.pool_dispatch");
      std::vector<std::vector<Relation::Row>> parts(plan_.opts.num_threads);
      auto stats = RunChunks(
          lrows.size(), [&](size_t p, size_t begin, size_t end) -> Status {
            uint64_t visited = 0;
            for (size_t i = begin; i < end; ++i) {
              if (limited_ && ++visited >= kCheckpointInterval) {
                visited = 0;
                INCDB_RETURN_IF_ERROR(ctx_->Check());
              }
              const auto& [t, c] = lrows[i];
              if (uint64_t kc = kept_count(t, c)) parts[p].emplace_back(t, kc);
            }
            return Status::OK();
          });
      for (const Status& st : stats) {
        INCDB_RETURN_IF_ERROR(st);
      }
      INCDB_RETURN_IF_ERROR(MergeChunksUnique(parts, &out));
      INCDB_RETURN_IF_ERROR(Budget(out.TotalSize(), n.attrs.size()));
      return RelationView::Own(std::move(out));
    }
    // Sequential probe loop with one checkpoint per window (the probes
    // themselves are one hash lookup each).
    for (size_t begin = 0; begin < lrows.size(); begin += batch_size()) {
      const size_t end = std::min(lrows.size(), begin + batch_size());
      INCDB_RETURN_IF_ERROR(Checkpoint(end - begin));
      for (size_t i = begin; i < end; ++i) {
        const auto& [t, c] = lrows[i];
        // Left rows are distinct, so each survivor inserts a fresh tuple.
        if (uint64_t kc = kept_count(t, c)) {
          INCDB_RETURN_IF_ERROR(out.InsertUnique(t, kc));
        }
      }
    }
    INCDB_RETURN_IF_ERROR(Budget(out.TotalSize(), n.attrs.size()));
    return RelationView::Own(std::move(out));
  }

  StatusOr<RelationView> EvalIntersect(const PhysNode& n) {
    auto l = Eval(n.left);
    if (!l.ok()) return l;
    auto r = Eval(n.right);
    if (!r.ok()) return r;
    Relation out(n.attrs);
    if (sql_mode()) {
      // IN semantics: keep r̄ iff some right tuple compares t. Under 3VL a
      // comparison is t only when both tuples are all-constant and equal,
      // so membership reduces to one hash lookup per left tuple.
      for (const auto& [t, c] : l->rows()) {
        INCDB_RETURN_IF_ERROR(Checkpoint());
        if (t.AllConst() && r->Contains(t)) {
          INCDB_RETURN_IF_ERROR(out.Insert(t, 1));
        }
      }
      INCDB_RETURN_IF_ERROR(Budget(out.TotalSize(), n.attrs.size()));
      return RelationView::Own(std::move(out));
    }
    for (const auto& [t, c] : l->rows()) {
      INCDB_RETURN_IF_ERROR(Checkpoint());
      uint64_t rc = r->Count(t);
      if (rc == 0) continue;
      INCDB_RETURN_IF_ERROR(
          out.Insert(t, set_semantics() ? 1 : std::min(c, rc)));
    }
    INCDB_RETURN_IF_ERROR(Budget(out.TotalSize(), n.attrs.size()));
    return RelationView::Own(std::move(out));
  }

  StatusOr<RelationView> EvalDivision(const PhysNode& n) {
    auto l = Eval(n.left);
    if (!l.ok()) return l;
    auto r = Eval(n.right);
    if (!r.ok()) return r;
    // Group the dividend by the kept attributes; collect divisor parts.
    std::unordered_map<Tuple, std::set<Tuple>> groups;
    for (const auto& [t, c] : l->rows()) {
      INCDB_RETURN_IF_ERROR(Checkpoint());
      groups[t.Project(n.keep_pos)].insert(t.Project(n.div_l));
    }
    std::set<Tuple> divisor;
    for (const auto& [t, c] : r->rows()) divisor.insert(t.Project(n.div_r));
    Relation out(n.attrs);
    for (const auto& [key, parts] : groups) {
      INCDB_RETURN_IF_ERROR(Checkpoint(divisor.size() + 1));
      bool all = std::includes(parts.begin(), parts.end(), divisor.begin(),
                               divisor.end());
      if (all) INCDB_RETURN_IF_ERROR(out.Insert(key, 1));
    }
    INCDB_RETURN_IF_ERROR(Budget(out.TotalSize(), n.attrs.size()));
    return RelationView::Own(std::move(out));
  }

  StatusOr<RelationView> EvalAntijoinUnify(const PhysNode& n) {
    auto l = Eval(n.left);
    if (!l.ok()) return l;
    auto r = Eval(n.right);
    if (!r.ok()) return r;
    // The index is built once on the calling thread; probes are pure reads.
    UnifyIndex index(r->rows(), r->arity(), plan_.opts.enable_unify_index);
    const std::vector<Relation::Row>& lrows = l->rows();
    const bool set = set_semantics();
    Relation out(n.attrs);
    if (UseChunkParallelism(lrows.size(), lrows.size() + r->rows().size(),
                            ChunkOp::kUnifySemiJoin)) {
      INCDB_FAULT_POINT("exec.pool_dispatch");
      std::vector<std::vector<Relation::Row>> parts(plan_.opts.num_threads);
      auto stats = RunChunks(
          lrows.size(), [&](size_t p, size_t begin, size_t end) -> Status {
            uint64_t visited = 0;
            for (size_t i = begin; i < end; ++i) {
              if (limited_ && ++visited >= kCheckpointInterval) {
                visited = 0;
                INCDB_RETURN_IF_ERROR(ctx_->Check());
              }
              const auto& [t, c] = lrows[i];
              if (!index.AnyUnifiable(t)) {
                parts[p].emplace_back(t, set ? 1 : c);
              }
            }
            return Status::OK();
          });
      for (const Status& st : stats) {
        INCDB_RETURN_IF_ERROR(st);
      }
      INCDB_RETURN_IF_ERROR(MergeChunksUnique(parts, &out));
      INCDB_RETURN_IF_ERROR(Budget(out.TotalSize(), n.attrs.size()));
      return RelationView::Own(std::move(out));
    }
    // One checkpoint per window of probes.
    for (size_t begin = 0; begin < lrows.size(); begin += batch_size()) {
      const size_t end = std::min(lrows.size(), begin + batch_size());
      INCDB_RETURN_IF_ERROR(Checkpoint(end - begin));
      for (size_t i = begin; i < end; ++i) {
        const auto& [t, c] = lrows[i];
        if (!index.AnyUnifiable(t)) {
          INCDB_RETURN_IF_ERROR(out.InsertUnique(t, set ? 1 : c));
        }
      }
    }
    INCDB_RETURN_IF_ERROR(Budget(out.TotalSize(), n.attrs.size()));
    return RelationView::Own(std::move(out));
  }

  StatusOr<RelationView> EvalDom(const PhysNode& n) {
    std::set<Value> dom = db_.ActiveDomain();
    for (const Value& v : n.dom_extra) dom.insert(v);
    std::vector<Value> values(dom.begin(), dom.end());
    uint64_t expected = 1;
    for (size_t i = 0; i < n.dom_arity; ++i) {
      if (values.empty()) break;
      expected *= values.size();
      if (expected > plan_.opts.max_tuples) {
        StatusDetail d;
        d.budget_used = expected;
        d.budget_limit = plan_.opts.max_tuples;
        return Status::ResourceExhausted(
                   "Dom^" + std::to_string(n.dom_arity) + " over " +
                   std::to_string(values.size()) + " values exceeds max_tuples")
            .WithDetail(std::move(d));
      }
    }
    Relation out(n.attrs);
    std::vector<size_t> idx(n.dom_arity, 0);
    if (n.dom_arity == 0) {
      INCDB_RETURN_IF_ERROR(out.Insert(Tuple{}, 1));
      return RelationView::Own(std::move(out));
    }
    if (values.empty()) return RelationView::Own(std::move(out));
    while (true) {
      INCDB_RETURN_IF_ERROR(Checkpoint());
      std::vector<Value> vals;
      vals.reserve(n.dom_arity);
      for (size_t i : idx) vals.push_back(values[i]);
      INCDB_RETURN_IF_ERROR(out.Insert(Tuple(std::move(vals)), 1));
      size_t pos = n.dom_arity;
      while (pos > 0) {
        --pos;
        if (++idx[pos] < values.size()) break;
        idx[pos] = 0;
        if (pos == 0) {
          INCDB_RETURN_IF_ERROR(Budget(out.TotalSize(), n.attrs.size()));
          return RelationView::Own(std::move(out));
        }
      }
    }
  }

  StatusOr<RelationView> EvalSemiAnti(const PhysNode& n) {
    auto l = Eval(n.left);
    if (!l.ok()) return l;
    auto r = Eval(n.right);
    if (!r.ok()) return r;
    // Equality with a null key never evaluates to t in either mode unless
    // syntactically equal (naive) — the key index covers both, as naive
    // equality is exactly key identity and SQL-mode null keys are skipped.
    // Without key columns every right row shares the empty key, so the
    // probe walks them all.
    const Rows& rrows = r->rows();
    const KeyIndex index(rrows, n.rkeys, sql_mode());
    Tuple joint_t;  // scratch, reused across probes
    auto exists_match = [&](const Tuple& lt) -> bool {
      for (uint32_t k = index.Find(lt, n.lkeys); k != RowIndex::kEmpty;
           k = index.Next(k)) {
        if (n.trivial_residual) return true;  // any key match suffices
        joint_t.AssignConcat(lt, rrows[index.row(k)].first);
        if (n.pred(joint_t) == TV3::kT) return true;
      }
      return false;
    };

    Relation out(n.attrs);
    // Checkpoint weight follows the work: without keys each probe walks
    // the whole right side. One checkpoint per window of probes.
    const uint64_t probe_weight = n.lkeys.empty() ? 1 + rrows.size() : 1;
    const std::vector<Relation::Row>& probe_lrows = l->rows();
    for (size_t begin = 0; begin < probe_lrows.size();
         begin += batch_size()) {
      const size_t end = std::min(probe_lrows.size(), begin + batch_size());
      INCDB_RETURN_IF_ERROR(Checkpoint(probe_weight * (end - begin)));
      for (size_t i = begin; i < end; ++i) {
        const auto& [lt, lc] = probe_lrows[i];
        // Left rows are distinct, so each survivor appends a fresh tuple.
        if (exists_match(lt) != n.anti) {
          INCDB_RETURN_IF_ERROR(
              out.InsertUnique(lt, set_semantics() ? 1 : lc));
        }
      }
    }
    INCDB_RETURN_IF_ERROR(Budget(out.TotalSize(), n.attrs.size()));
    return RelationView::Own(std::move(out));
  }

  /// SQL's x̄ [NOT] IN subquery predicate. The right side is first filtered
  /// per left row by the (possibly correlated) condition θ with 3VL keep-t
  /// discipline; membership of the left compare columns then follows the
  /// active mode:
  ///  * naive: syntactic equality;
  ///  * SQL:   IN keeps a row iff some right row compares t; NOT IN keeps
  ///           a row iff *every* right row compares f — one null partner
  ///           (or a null on the left with a non-empty right side) blocks
  ///           the row, reproducing SQL's notorious NOT IN behaviour.
  StatusOr<RelationView> EvalInPredicate(const PhysNode& n) {
    auto l = Eval(n.left);
    if (!l.ok()) return l;
    auto r = Eval(n.right);
    if (!r.ok()) return r;
    const bool negated = n.anti;

    // Uncorrelated fast path: index the right keys once. Rows whose key
    // involves a null are listed separately: under SQL 3VL they are the
    // only right keys an all-constant left key cannot dismiss with one
    // hash lookup.
    const Rows& rrows = r->rows();
    std::optional<KeyIndex> keys;
    std::vector<uint32_t> null_keys;
    if (!n.correlated) keys.emplace(rrows, n.rpos, /*sql=*/false);
    if (!n.correlated && sql_mode() && negated) {
      for (uint32_t i = 0; i < rrows.size(); ++i) {
        for (size_t p : n.rpos) {
          if (rrows[i].first[p].is_null()) {
            null_keys.push_back(i);
            break;
          }
        }
      }
    }

    Relation out(n.attrs);
    Tuple lkey, rkey, joint_t;  // scratch, reused across rows and pairs
    // The correlated path re-scans the right side per left row. One
    // checkpoint per window of left rows.
    const uint64_t row_weight = n.correlated ? 1 + rrows.size() : 1;
    const std::vector<Relation::Row>& in_lrows = l->rows();
    for (size_t wbegin = 0; wbegin < in_lrows.size();
         wbegin += batch_size()) {
      const size_t wend = std::min(in_lrows.size(), wbegin + batch_size());
      INCDB_RETURN_IF_ERROR(Checkpoint(row_weight * (wend - wbegin)));
      for (size_t wi = wbegin; wi < wend; ++wi) {
      const auto& [lt, lc] = in_lrows[wi];
      lkey.AssignProject(lt, n.lpos);
      bool keep;
      if (!n.correlated) {
        const bool found = keys->Find(lt, n.lpos) != RowIndex::kEmpty;
        if (!sql_mode()) {
          keep = negated ? !found : found;
        } else if (!negated) {
          keep = found && lkey.AllConst();
        } else if (lkey.AllConst()) {
          // NOT IN: all comparisons must be certainly false. All-constant
          // pairs compare t exactly when syntactically equal, so an
          // all-constant left key needs one hash miss plus a scan of the
          // (typically few) null-involving right keys.
          keep = !found;
          for (uint32_t i : null_keys) {
            if (!keep) break;
            rkey.AssignProject(rrows[i].first, n.rpos);
            if (SqlTupleEq(lkey, rkey) != TV3::kF) keep = false;
          }
        } else {
          // A left key with a null keeps the pairwise 3VL scan.
          keep = true;
          for (const auto& [rt, rc] : rrows) {
            rkey.AssignProject(rt, n.rpos);
            if (SqlTupleEq(lkey, rkey) != TV3::kF) {
              keep = false;
              break;
            }
          }
        }
      } else {
        // Correlated: filter right rows by θ(l·r) = t, then test.
        bool exists_t = false;
        bool all_f = true;
        for (const auto& [rt, rc] : r->rows()) {
          joint_t.AssignConcat(lt, rt);
          if (n.pred(joint_t) != TV3::kT) continue;
          rkey.AssignProject(rt, n.rpos);
          if (sql_mode()) {
            TV3 tv = SqlTupleEq(lkey, rkey);
            if (tv == TV3::kT) exists_t = true;
            if (tv != TV3::kF) all_f = false;
          } else {
            if (lkey == rkey) exists_t = true;
            if (lkey == rkey) all_f = false;
          }
        }
        keep = negated ? all_f : exists_t;
      }
      if (keep) {  // left rows are distinct: no duplicate probe
        INCDB_RETURN_IF_ERROR(
            out.InsertUnique(lt, set_semantics() ? 1 : lc));
      }
      }
    }
    INCDB_RETURN_IF_ERROR(Budget(out.TotalSize(), n.attrs.size()));
    return RelationView::Own(std::move(out));
  }

  StatusOr<RelationView> EvalJoin(const PhysNode& n) {
    auto l = Eval(n.left);
    if (!l.ok()) return l;
    auto r = Eval(n.right);
    if (!r.ok()) return r;
    const bool set = set_semantics();
    const bool has_proj = n.fused_proj;

    // Projection shortcut: a condition-free product projected onto
    // columns of a single side is just that side's projection (times the
    // other side's non-emptiness) under set semantics.
    if (n.op == PhysOp::kNLJoin && has_proj && set &&
        n.cond->kind == CondKind::kTrue) {
      if (n.proj_left_only && !r->rows().empty()) {
        Relation out(n.attrs);
        Tuple scratch;
        for (const auto& [lt, lc] : l->rows()) {
          INCDB_RETURN_IF_ERROR(Checkpoint());
          scratch.AssignProject(lt, n.proj_pos);  // positions are left-local
          INCDB_RETURN_IF_ERROR(out.Insert(scratch, 1));
        }
        out.CollapseCounts();
        INCDB_RETURN_IF_ERROR(Budget(out.TotalSize(), n.attrs.size()));
        return RelationView::Own(std::move(out));
      }
      if (n.proj_right_only && !l->rows().empty()) {
        std::vector<size_t> pos;
        for (size_t i : n.proj_pos) pos.push_back(i - n.left_arity);
        Relation out(n.attrs);
        Tuple scratch;
        for (const auto& [rt, rc] : r->rows()) {
          INCDB_RETURN_IF_ERROR(Checkpoint());
          scratch.AssignProject(rt, pos);
          INCDB_RETURN_IF_ERROR(out.Insert(scratch, 1));
        }
        out.CollapseCounts();
        INCDB_RETURN_IF_ERROR(Budget(out.TotalSize(), n.attrs.size()));
        return RelationView::Own(std::move(out));
      }
      if (l->rows().empty() || r->rows().empty()) {
        return RelationView::Own(Relation(n.attrs));
      }
    }

    const Rows& lrows = l->rows();
    const Rows& rrows = r->rows();
    if (n.op == PhysOp::kNLJoin) {
      // Work estimate for the parallel threshold: every pair is visited.
      if (UseChunkParallelism(lrows.size(), lrows.size() * rrows.size(),
                              ChunkOp::kNLJoin)) {
        return ParallelNLJoin(n, lrows, rrows);
      }
    } else if (plan_.opts.num_threads > 1 &&
               lrows.size() + rrows.size() >= plan_.opts.parallel_min_rows) {
      return ParallelHashJoin(n, lrows, rrows);
    }
    Relation out(n.attrs);
    auto sink = [&](const Tuple& t, uint64_t c) -> Status {
      // Pairs of distinct rows are distinct: no duplicate probe unless a
      // projection may fold them together.
      INCDB_RETURN_IF_ERROR(has_proj ? out.Insert(t, c)
                                     : out.InsertUnique(t, c));
      return Budget(c, n.attrs.size());
    };
    INCDB_RETURN_IF_ERROR(JoinRows(n, set, sql_mode(), lrows, rrows,
                                   batch_size(), Checker(), sink));
    // With a projection under set semantics, distinct pairs may collapse;
    // normalise multiplicities at the end.
    if (has_proj && set) out.CollapseCounts();
    return RelationView::Own(std::move(out));
  }

  /// \brief Cooperative limits of one parallel-join worker.
  ///
  /// Every worker checks the ExecContext on its own visited-work counter,
  /// so a deadline or a Cancel() from another thread stops all partitions
  /// within one interval, and reports its emissions to the shared budget
  /// counter every 4096 rows, failing once the ceiling is crossed
  /// (overshoot bounded by one report interval per worker). The caller
  /// drops partial outputs; the pool stays reusable (ExecPool::Run always
  /// drains every task body).
  class WorkerLimits {
   public:
    WorkerLimits(const Executor& ex, std::atomic<uint64_t>* emitted)
        : ex_(ex), emitted_(emitted) {}

    /// Kernel window hook: a checkpoint over `units` of visited work.
    Status operator()(size_t units) {
      if (!ex_.limited_) return Status::OK();
      visited_ += units;
      if (visited_ < kCheckpointInterval) return Status::OK();
      visited_ = 0;
      return ex_.ctx_->Check();
    }

    /// Kernel sink into this worker's output part.
    auto SinkInto(std::vector<Relation::Row>* part) {
      return [this, part](const Tuple& t, uint64_t c) -> Status {
        part->emplace_back(t, c);
        return ++unreported_ < 4096 ? Status::OK() : Report();
      };
    }

    /// Adds the unreported emissions to the shared counter.
    Status Report() {
      const uint64_t total =
          emitted_->fetch_add(unreported_, std::memory_order_relaxed) +
          unreported_;
      unreported_ = 0;
      const uint64_t max = ex_.plan_.opts.max_tuples;
      const uint64_t left = max > ex_.produced_ ? max - ex_.produced_ : 0;
      return total > left ? ex_.OverBudget(ex_.produced_ + total)
                          : Status::OK();
    }

   private:
    const Executor& ex_;
    std::atomic<uint64_t>* emitted_;
    uint64_t visited_ = 0;
    uint64_t unreported_ = 0;
  };

  /// Partitioned hash join: both sides are split by key-hash prefix into
  /// num_threads partitions; matching keys land in the same partition, so
  /// partitions join independently on the pool. Outputs merge in
  /// partition-index order — a fixed thread count yields a deterministic
  /// row order, and any thread count yields the same relation.
  StatusOr<RelationView> ParallelHashJoin(const PhysNode& n,
                                          const Rows& lrows,
                                          const Rows& rrows) {
    INCDB_FAULT_POINT("exec.pool_dispatch");
    const size_t P = plan_.opts.num_threads;
    const bool build_left = lrows.size() <= rrows.size();
    const Rows& build = build_left ? lrows : rrows;
    const Rows& probe = build_left ? rrows : lrows;
    std::vector<std::vector<uint32_t>> build_parts(P), probe_parts(P);
    auto split = [&](const Rows& rows, const std::vector<size_t>& keys,
                     std::vector<std::vector<uint32_t>>* parts) {
      size_t h = 0;
      for (uint32_t i = 0; i < rows.size(); ++i) {
        if (KeyIndex::KeyHash(rows[i].first, keys, sql_mode(), &h)) {
          (*parts)[h % P].push_back(i);
        }
      }
    };
    split(build, build_left ? n.lkeys : n.rkeys, &build_parts);
    split(probe, build_left ? n.rkeys : n.lkeys, &probe_parts);

    // Partitions emit raw (tuple, count) rows — the hash-indexed insert
    // happens exactly once, at the canonical merge below.
    std::vector<Rows> outs(P);
    std::vector<Status> stats(P, Status::OK());
    std::atomic<uint64_t> emitted{0};
    RunPartitions(P, [&](size_t p) {
      WorkerLimits lim(*this, &emitted);
      auto sink = lim.SinkInto(&outs[p]);
      stats[p] = [&]() -> Status {
        INCDB_RETURN_IF_ERROR(lim(build_parts[p].size()));
        HashJoinKernel hj(n, set_semantics(), sql_mode(), build_left, build,
                          &build_parts[p]);
        const std::vector<uint32_t>& plist = probe_parts[p];
        for (size_t wb = 0; wb < plist.size(); wb += batch_size()) {
          const size_t we = std::min(plist.size(), wb + batch_size());
          INCDB_RETURN_IF_ERROR(lim(we - wb));
          for (size_t qi = wb; qi < we; ++qi) {
            const auto& [pt, pc] = probe[plist[qi]];
            INCDB_RETURN_IF_ERROR(hj.Probe(pt, pc, lim, sink));
          }
        }
        return lim.Report();
      }();
    });
    for (const Status& st : stats) {
      INCDB_RETURN_IF_ERROR(st);
    }
    return MergeJoinParts(outs, n);
  }

  /// Chunk-partitioned nested-loop join: left rows split into contiguous
  /// chunks, each chunk joined with all right rows by its own kernel (the
  /// right-side transposition is rebuilt per chunk: O(right rows), dwarfed
  /// by the pair loop). Chunk outputs merged in chunk order reproduce the
  /// exact left-major sequential pair order, so any thread count yields a
  /// row-for-row identical relation.
  StatusOr<RelationView> ParallelNLJoin(const PhysNode& n, const Rows& lrows,
                                        const Rows& rrows) {
    INCDB_FAULT_POINT("exec.pool_dispatch");
    std::vector<Rows> parts(plan_.opts.num_threads);
    std::atomic<uint64_t> emitted{0};
    auto stats = RunChunks(
        lrows.size(), [&](size_t p, size_t begin, size_t end) -> Status {
          WorkerLimits lim(*this, &emitted);
          NLJoinKernel nl(n, set_semantics(), rrows);
          INCDB_RETURN_IF_ERROR(nl.Run(lrows, begin, end, batch_size(), lim,
                                       lim.SinkInto(&parts[p])));
          return lim.Report();
        });
    for (const Status& st : stats) {
      INCDB_RETURN_IF_ERROR(st);
    }
    return MergeJoinParts(parts, n);
  }

  const Plan& plan_;
  const Database& db_;
  ScanResolver scans_;
  const ExecContext* ctx_;  // outlives the execution (held by the caller)
  const bool limited_;      // hoisted ctx_->limited(): one branch per checkpoint
  std::unordered_map<const PhysNode*, RelationView> memo_;
  /// Scratch of the sequential σ/π∘σ/π sweeps (the parallel joins give
  /// each worker its own kernel).
  WindowKernel window_;
  uint64_t produced_ = 0;
  uint64_t mem_used_ = 0;   // approx bytes of materialized tuples
  uint64_t check_acc_ = 0;  // rows since the last real ctx check
};

}  // namespace

namespace {
Status CheckExecutable(const PlanPtr& plan) {
  if (!plan || !plan->root) {
    return Status::InvalidArgument("Execute: empty plan");
  }
  if (plan->param_count > 0) {
    return Status::InvalidArgument(
        "Execute: plan has " + std::to_string(plan->param_count) +
        " unbound parameter(s); bind them first (BindPlanParams or "
        "PreparedQuery::Execute)");
  }
  return Status::OK();
}
}  // namespace

StatusOr<Relation> Execute(const PlanPtr& plan, const Database& db,
                           const ExecContext& ctx) {
  INCDB_RETURN_IF_ERROR(CheckExecutable(plan));
  Executor ex(*plan, db, ctx);
  return ex.Run();
}

StatusOr<Relation> Execute(const PlanPtr& plan, const Database& db) {
  return Execute(plan, db, ExecContext{});
}

StatusOr<Relation> ExecuteNode(const PlanPtr& plan, const PhysPtr& node,
                               const Database& db, const ExecContext& ctx) {
  INCDB_RETURN_IF_ERROR(CheckExecutable(plan));
  if (!node) return Status::InvalidArgument("ExecuteNode: empty node");
  Executor ex(*plan, db, ctx);
  return ex.RunNode(node);
}

StatusOr<Relation> ExecuteNode(const PlanPtr& plan, const PhysPtr& node,
                               const Database& db) {
  return ExecuteNode(plan, node, db, ExecContext{});
}

}  // namespace incdb
