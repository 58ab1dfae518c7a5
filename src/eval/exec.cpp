// Physical-plan executor (see eval/plan.h for the layer contract).
//
// Operators exchange RelationViews: leaf scans borrow the database rows in
// place, everything that materialises owns its output. The binary
// operators — difference, intersection, ⋉⇑, semijoin/antijoin (which SQL's
// [NOT] IN compiles to) and both joins — run through one row driver,
// Executor::Sweep:
// it emits the output of the operator's outer rows (left rows, or the
// hash join's probe rows) on the calling thread or, when
// eval/parallel_policy.h says it pays, in EvalOptions::num_threads
// contiguous chunks on a process-wide worker pool whose outputs merge in
// chunk order. Either way every operator returns the sequential rows in
// the sequential order (Relation::IdenticalTo) at any thread count.
//
// A hash join, join chain or ⋉/▷ that indexes a scan's borrowed view
// takes the index from the relation state's memo (core/key_index.h,
// Executor::IndexOn): the first query over that state builds it, later
// ones probe it. Materialised inputs and set-collapsed copies are indexed
// per call.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>
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
  // Base relations are usually sets already: the scan borrows the stored
  // state in place, with its key-index memo.
  if (!collapse_to_set || rel.IsSet()) {
    return RelationView::Borrow(rel, db_->KeyIndexes(name));
  }
  // Otherwise the collapsed copy is materialised once per relation;
  // repeated resolutions (the FO evaluator re-resolves inside quantifier
  // loops) reuse it.
  auto it = collapsed_.find(name);
  if (it == collapsed_.end()) it = collapsed_.emplace(name, rel.ToSet()).first;
  return RelationView::Borrow(it->second);
}

namespace {

/// \brief Process-wide worker pool that runs the row driver's chunks.
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

  /// Rows per columnar window (≥ 1: Compile rejects 0).
  size_t batch_size() const { return plan_.opts.batch_size; }

  /// \brief Cooperative limits of one chunk on the pool.
  ///
  /// Every chunk checks the ExecContext on its own visited-work counter,
  /// so a deadline or a Cancel() from another thread stops all chunks
  /// within one interval, and reports its emissions to the shared budget
  /// counter every 4096 rows, failing once the ceiling is crossed
  /// (overshoot bounded by one report interval per chunk). The caller
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

    /// Kernel sink into this chunk's part.
    auto SinkInto(Rows* part) {
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

  /// The row driver of the binary operators. work(begin, end, pre, sink)
  /// emits the output of outer rows [begin, end) — left rows, or the hash
  /// join's probe rows — through `sink`, running `pre` before each window
  /// of work. On one thread the sink writes straight into the output.
  /// When eval/parallel_policy.h says it pays, num_threads contiguous
  /// chunks run on the pool, each into its own part, and the parts are
  /// then inserted in chunk order: the output is the sequential one, row
  /// for row, at any thread count. Chunks call `work` concurrently, so
  /// its scratch lives in the call.
  template <typename Work>
  StatusOr<RelationView> Sweep(const PhysNode& n, size_t outer_rows,
                               size_t weight, ChunkOp op, const Work& work) {
    Relation out(n.attrs);
    // Distinct outer rows, and pairs of them, emit distinct rows unless a
    // fused projection folds them together.
    auto insert = [&](auto&& t, uint64_t c) {
      using T = decltype(t);
      if (n.fused_proj) return out.Insert(std::forward<T>(t), c);
      return out.InsertUnique(std::forward<T>(t), c);
    };
    if (!ChunkParallelismProfitable(plan_.opts.num_threads, outer_rows,
                                    weight, plan_.opts.parallel_min_rows,
                                    op)) {
      // A join may emit more rows than it reads, so it charges every
      // emitted row; the other operators keep at most one row per outer
      // row and charge their output once.
      const bool join = op == ChunkOp::kNLJoin || op == ChunkOp::kHashJoin;
      auto pre = Checker();
      auto sink = [&](const Tuple& t, uint64_t c) -> Status {
        INCDB_RETURN_IF_ERROR(insert(t, c));
        return join ? Budget(c, n.attrs.size()) : Status::OK();
      };
      INCDB_RETURN_IF_ERROR(work(size_t{0}, outer_rows, pre, sink));
      if (!join) INCDB_RETURN_IF_ERROR(Budget(out.TotalSize(), n.attrs.size()));
    } else {
      INCDB_FAULT_POINT("exec.pool_dispatch");
      // The chunk count P fixes the output; the worker count is only a
      // resource, capped at the hardware parallelism (waking helpers a
      // single-core box cannot run only adds context switches).
      const size_t P = plan_.opts.num_threads;
      const size_t hw = std::thread::hardware_concurrency();
      std::vector<Rows> parts(P);
      std::vector<Status> stats(P);
      std::atomic<uint64_t> emitted{0};
      ExecPool::Get().Run(P, std::min(P, hw == 0 ? P : hw), [&](size_t p) {
        WorkerLimits lim(*this, &emitted);
        auto part = lim.SinkInto(&parts[p]);
        stats[p] = work(outer_rows * p / P, outer_rows * (p + 1) / P, lim,
                        part);
        if (stats[p].ok()) stats[p] = lim.Report();
      });
      size_t rows = 0;
      for (size_t p = 0; p < P; ++p) {
        INCDB_RETURN_IF_ERROR(stats[p]);
        rows += parts[p].size();
      }
      // The merge checkpoints per row like every loop, so a deadline or
      // Cancel() landing after the chunks finish still stops the query,
      // and charges the emitted multiplicities once.
      out.Reserve(rows);
      uint64_t total = 0;
      for (Rows& part : parts) {
        for (auto& [t, c] : part) {
          INCDB_RETURN_IF_ERROR(Checkpoint());
          if (__builtin_add_overflow(total, c, &total)) {
            return MultiplicityOverflow("exec.merge", total, c);
          }
          INCDB_RETURN_IF_ERROR(insert(std::move(t), c));
        }
      }
      INCDB_RETURN_IF_ERROR(Budget(total, n.attrs.size()));
    }
    if (n.fused_proj && set_semantics()) out.CollapseCounts();
    return RelationView::Own(std::move(out));
  }

  /// Sweep for the operators that keep a subset of their left rows: row
  /// (t, c) is emitted with the multiplicity keep(t, c) returns, 0 dropping
  /// it, and `unit` weighs one row's work for the checkpoints. Each chunk
  /// runs its own copy of `keep`, so keep's by-value captures are per-chunk
  /// scratch.
  template <typename Keep>
  StatusOr<RelationView> SweepKeep(const PhysNode& n, ChunkOp op,
                                   const Rows& lrows, const Rows& rrows,
                                   uint64_t unit, const Keep& keep) {
    return Sweep(
        n, lrows.size(), lrows.size() + rrows.size(), op,
        [&](size_t begin, size_t end, auto& pre, auto& sink) -> Status {
          Keep kept_count = keep;
          for (size_t wb = begin; wb < end; wb += batch_size()) {
            const size_t we = std::min(end, wb + batch_size());
            INCDB_RETURN_IF_ERROR(pre(unit * (we - wb)));
            for (size_t i = wb; i < we; ++i) {
              const auto& [t, c] = lrows[i];
              if (const uint64_t k = kept_count(t, c)) {
                INCDB_RETURN_IF_ERROR(sink(t, k));
              }
            }
          }
          return Status::OK();
        });
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
    return SweepKeep(n, ChunkOp::kDifference, l->rows(), r->rows(), 1,
                     kept_count);
  }

  StatusOr<RelationView> EvalIntersect(const PhysNode& n) {
    auto l = Eval(n.left);
    if (!l.ok()) return l;
    auto r = Eval(n.right);
    if (!r.ok()) return r;
    const bool sql = sql_mode();
    const bool set = set_semantics();
    return SweepKeep(n, ChunkOp::kIntersect, l->rows(), r->rows(), 1,
                     [&](const Tuple& t, uint64_t c) -> uint64_t {
                       // IN semantics: keep r̄ iff some right tuple compares
                       // t. Under 3VL a comparison is t only when both
                       // tuples are all-constant and equal, so membership
                       // is one hash lookup.
                       if (sql) return t.AllConst() && r->Contains(t) ? 1 : 0;
                       const uint64_t rc = r->Count(t);
                       if (rc == 0) return 0;
                       return set ? 1 : std::min(c, rc);
                     });
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
    const UnifyIndex index(r->rows(), r->arity(),
                           plan_.opts.enable_unify_index);
    const bool set = set_semantics();
    return SweepKeep(n, ChunkOp::kUnifySemiJoin, l->rows(), r->rows(), 1,
                     [&](const Tuple& t, uint64_t c) -> uint64_t {
                       if (index.AnyUnifiable(t)) return 0;
                       return set ? 1 : c;
                     });
  }

  StatusOr<RelationView> EvalDom(const PhysNode& n) {
    std::set<Value> dom = db_.ActiveDomain();
    for (const Value& v : n.dom_extra) dom.insert(v);
    std::vector<Value> values(dom.begin(), dom.end());
    uint64_t expected = 1;
    for (size_t i = 0; i < n.dom_arity; ++i) {
      if (values.empty()) break;
      // Past 2^64 tuples the size saturates: it exceeds every max_tuples.
      const bool wrapped =
          __builtin_mul_overflow(expected, values.size(), &expected);
      if (wrapped) expected = UINT64_MAX;
      if (wrapped || expected > plan_.opts.max_tuples) {
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

  /// ⋉ and ▷, which [NOT] IN compiles to: an EXISTS probe per left row over
  /// the right rows that can pass its keys. Keyless, that is every right
  /// row. Plain keys take the key-match chain: a null key equals only as
  /// naive identity, so SQL indexes no null key. Null-aware keys match when
  /// equal or null on either side: a left key holding a null checks every
  /// right row, any other its chain, then the right rows whose key holds
  /// one. A residual that reads no right column is decided by the first
  /// candidate; otherwise the probe sweeps the candidates until the first
  /// partner, and the checkpoint weight of a keyless one follows that work.
  StatusOr<RelationView> EvalSemiAnti(const PhysNode& n) {
    auto l = Eval(n.left);
    if (!l.ok()) return l;
    auto r = Eval(n.right);
    if (!r.ok()) return r;
    const Rows& rrows = r->rows();
    const bool keyed = !n.lkeys.empty();
    const bool sweep = !n.trivial_residual && !n.residual_left_only;
    std::optional<KeyIndex> own;
    const KeyIndex* index = nullptr;
    if (keyed) {
      auto on = IndexOn(*r, n.rkeys, sql_mode() || n.null_aware, &own);
      if (!on.ok()) return on.status();
      index = *on;
    }
    // The right rows whose null-aware key holds a null: the ones the index
    // skipped.
    const std::vector<uint32_t> none;
    const std::vector<uint32_t>& null_keys =
        n.null_aware ? index->skipped() : none;
    const bool set = set_semantics();
    return SweepKeep(
        n, ChunkOp::kSemiJoin, l->rows(), rrows,
        !keyed && sweep ? 1 + rrows.size() : 1,
        [&, partners = PartnerSelect(n, rrows)](const Tuple& lt,
                                                uint64_t lc) mutable
        -> uint64_t {
          auto key_ok = [&](uint32_t i) {
            if (!n.null_aware) return true;
            const Tuple& rt = rrows[i].first;
            for (size_t k = 0; k < n.lkeys.size(); ++k) {
              const Value& a = lt[n.lkeys[k]];
              const Value& b = rt[n.rkeys[k]];
              if (!a.is_null() && !b.is_null() && a != b) return false;
            }
            return true;
          };
          const bool scan = !keyed || (n.null_aware && NullAt(lt, n.lkeys));
          const uint32_t k = scan ? RowIndex::kEmpty : index->Find(lt, n.lkeys);
          bool match;
          if (sweep) {
            auto any = [](uint32_t) { return true; };
            match = (k != RowIndex::kEmpty &&
                     partners.FindInChain(lt, *index, k, batch_size(), any)) ||
                    (scan ? partners.FindInRange(lt, batch_size(), key_ok)
                          : partners.FindInList(lt, null_keys, batch_size(),
                                                key_ok));
          } else {
            match = k != RowIndex::kEmpty;
            const size_t m = scan ? rrows.size() : null_keys.size();
            for (size_t j = 0; !match && j < m; ++j) {
              match = key_ok(scan ? static_cast<uint32_t>(j) : null_keys[j]);
            }
            match = match &&
                    (n.trivial_residual || !partners.Range(lt, 0, 1).empty());
          }
          if (match == n.anti) return 0;
          return set ? 1 : lc;
        });
  }

  StatusOr<RelationView> EvalJoin(const PhysNode& n) {
    if (n.op == PhysOp::kHashJoin && n.left->op == PhysOp::kHashJoin) {
      auto rc = plan_.refcount.find(n.left.get());
      const bool shared = rc != plan_.refcount.end() && rc->second > 1;
      // Rows of a fused left join may repeat; only a fused join merges.
      if (!shared && (!n.left->fused_proj || n.fused_proj)) {
        return EvalJoinChain(n);
      }
    }
    auto l = Eval(n.left);
    if (!l.ok()) return l;
    auto r = Eval(n.right);
    if (!r.ok()) return r;
    return JoinOf(n, *l, *r);
  }

  /// Hash join n over the hash join m = n.left that nothing else reads, as
  /// the compiler's left-deep σ/×/⋈ chains build them. When n's right
  /// input is no larger than the rows m probes with (so m's output is
  /// likely the side n would probe with), n indexes its right input and
  /// each row m emits probes that index at once, instead of being stored
  /// and hashed in an intermediate relation first. The rows and their
  /// order are those of probing n's index with the materialised m: a row
  /// m emits twice meets the same matches again, and n's fused projection
  /// merges them into the first occurrence.
  StatusOr<RelationView> EvalJoinChain(const PhysNode& n) {
    const PhysNode& m = *n.left;
    auto ml = Eval(m.left);
    if (!ml.ok()) return ml;
    auto mr = Eval(m.right);
    if (!mr.ok()) return mr;
    auto r = Eval(n.right);
    if (!r.ok()) return r;
    const Rows& rrows = r->rows();
    const bool build_left = ml->rows().size() <= mr->rows().size();
    const Rows& build = build_left ? ml->rows() : mr->rows();
    const Rows& probe = build_left ? mr->rows() : ml->rows();
    if (rrows.size() > probe.size()) {
      auto mid = JoinOf(m, *ml, *mr);
      if (!mid.ok()) return mid;
      return JoinOf(n, *mid, *r);
    }
    const bool set = set_semantics();
    std::optional<KeyIndex> own, rown;
    auto index = IndexOn(build_left ? *ml : *mr, build_left ? m.lkeys : m.rkeys,
                         sql_mode(), &own);
    if (!index.ok()) return index.status();
    auto rindex = IndexOn(*r, n.rkeys, sql_mode(), &rown);
    if (!rindex.ok()) return rindex.status();
    return Sweep(
        n, probe.size(), build.size() + probe.size() + rrows.size(),
        ChunkOp::kHashJoin,
        [&](size_t begin, size_t end, auto& pre, auto& sink) -> Status {
          HashJoinKernel top(n, set, /*build_left=*/false, rrows, **rindex,
                             batch_size());
          auto into_top = [&](const Tuple& t, uint64_t c) {
            return top.Probe(t, c, pre, sink);
          };
          return HashJoinKernel(m, set, build_left, build, **index,
                                batch_size())
              .Run(probe, begin, end, pre, into_top);
        });
  }

  StatusOr<RelationView> JoinOf(const PhysNode& n, const RelationView& l,
                                const RelationView& r) {
    const bool set = set_semantics();

    // Projection shortcut: a condition-free product projected onto
    // columns of a single side is just that side's projection (times the
    // other side's non-emptiness) under set semantics.
    if (n.op == PhysOp::kNLJoin && n.fused_proj && set &&
        n.cond->kind == CondKind::kTrue) {
      if (n.proj_left_only && !r.rows().empty()) {
        Relation out(n.attrs);
        Tuple scratch;
        for (const auto& [lt, lc] : l.rows()) {
          INCDB_RETURN_IF_ERROR(Checkpoint());
          scratch.AssignProject(lt, n.proj_pos);  // positions are left-local
          INCDB_RETURN_IF_ERROR(out.Insert(scratch, 1));
        }
        out.CollapseCounts();
        INCDB_RETURN_IF_ERROR(Budget(out.TotalSize(), n.attrs.size()));
        return RelationView::Own(std::move(out));
      }
      if (n.proj_right_only && !l.rows().empty()) {
        std::vector<size_t> pos;
        for (size_t i : n.proj_pos) pos.push_back(i - n.left_arity);
        Relation out(n.attrs);
        Tuple scratch;
        for (const auto& [rt, rc] : r.rows()) {
          INCDB_RETURN_IF_ERROR(Checkpoint());
          scratch.AssignProject(rt, pos);
          INCDB_RETURN_IF_ERROR(out.Insert(scratch, 1));
        }
        out.CollapseCounts();
        INCDB_RETURN_IF_ERROR(Budget(out.TotalSize(), n.attrs.size()));
        return RelationView::Own(std::move(out));
      }
      if (l.rows().empty() || r.rows().empty()) {
        return RelationView::Own(Relation(n.attrs));
      }
    }

    const Rows& lrows = l.rows();
    const Rows& rrows = r.rows();
    if (n.op == PhysOp::kNLJoin) {
      // Every pair is visited: the work estimate counts pairs. Each chunk
      // transposes the right side for its own kernel, O(right rows) and
      // dwarfed by the pair loop.
      return Sweep(
          n, lrows.size(), lrows.size() * rrows.size(), ChunkOp::kNLJoin,
          [&](size_t begin, size_t end, auto& pre, auto& sink) -> Status {
            return NLJoinKernel(n, set, rrows)
                .Run(lrows, begin, end, batch_size(), pre, sink);
          });
    }
    // The hash join indexes the smaller side once; chunks probe it with
    // contiguous runs of the other side's rows.
    const bool build_left = lrows.size() <= rrows.size();
    const Rows& build = build_left ? lrows : rrows;
    const Rows& probe = build_left ? rrows : lrows;
    std::optional<KeyIndex> own;
    auto index = IndexOn(build_left ? l : r, build_left ? n.lkeys : n.rkeys,
                         sql_mode(), &own);
    if (!index.ok()) return index.status();
    return Sweep(
        n, probe.size(), lrows.size() + rrows.size(), ChunkOp::kHashJoin,
        [&](size_t begin, size_t end, auto& pre, auto& sink) -> Status {
          return HashJoinKernel(n, set, build_left, build, **index,
                                batch_size())
              .Run(probe, begin, end, pre, sink);
        });
  }

  /// The key index of `side`'s rows on `keys`, skipping null keys with
  /// `skip_nulls`. A side that borrows a stored relation state probes the
  /// state's memoised index (core/key_index.h), which the first query that
  /// needs it builds; any other side is indexed into `*own` for this call.
  static StatusOr<const KeyIndex*> IndexOn(const RelationView& side,
                                           const std::vector<size_t>& keys,
                                           bool skip_nulls,
                                           std::optional<KeyIndex>* own) {
    if (side.indexes() != nullptr) {
      return side.indexes()->Get(keys, skip_nulls);
    }
    own->emplace(side.rows(), keys, skip_nulls);
    return &**own;
  }

  const Plan& plan_;
  const Database& db_;
  ScanResolver scans_;
  const ExecContext* ctx_;  // outlives the execution (held by the caller)
  const bool limited_;      // hoisted ctx_->limited(): one branch per checkpoint
  std::unordered_map<const PhysNode*, RelationView> memo_;
  /// Scratch of the σ/π∘σ/π sweeps.
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
