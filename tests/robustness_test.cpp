// Tests for the robustness layer: structured Status codes and details,
// ExecContext deadlines / cancellation / soft-memory budgets threaded
// through the executor, max_tuples enforcement across every operator
// shape (including the streaming cursor path), the transparent
// stale-retry of prepared queries, and the deterministic FaultInjector.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/session.h"
#include "core/exec_context.h"
#include "core/fault.h"
#include "core/status.h"
#include "eval/eval.h"
#include "tests/testing_util.h"

namespace incdb {
namespace {

// --- Status codes and structured detail --------------------------------------

TEST(StatusTest, CodeNameCoversEveryCode) {
  // Regression: a new StatusCode must get a CodeName entry. Covers every
  // enumerator explicitly so a rename shows up as a failure here.
  EXPECT_STREQ(CodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(CodeName(StatusCode::kInvalidArgument), "InvalidArgument");
  EXPECT_STREQ(CodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(CodeName(StatusCode::kUnsupported), "Unsupported");
  EXPECT_STREQ(CodeName(StatusCode::kResourceExhausted), "ResourceExhausted");
  EXPECT_STREQ(CodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(CodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(CodeName(StatusCode::kDeadlineExceeded), "DeadlineExceeded");
  EXPECT_STREQ(CodeName(StatusCode::kCancelled), "Cancelled");
}

TEST(StatusTest, FactoriesForNewCodes) {
  Status d = Status::DeadlineExceeded("too slow");
  EXPECT_EQ(d.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(d.ToString(), "DeadlineExceeded: too slow");
  Status c = Status::Cancelled("stop");
  EXPECT_EQ(c.code(), StatusCode::kCancelled);
  EXPECT_FALSE(c.ok());
}

TEST(StatusTest, DetailRoundTripsAndSharesAcrossCopies) {
  StatusDetail d;
  d.budget_used = 123;
  d.budget_limit = 45;
  d.site = "unit.test";
  Status st = Status::ResourceExhausted("over").WithDetail(std::move(d));
  ASSERT_NE(st.detail(), nullptr);
  EXPECT_EQ(st.detail()->budget_used, 123u);
  EXPECT_EQ(st.detail()->budget_limit, 45u);
  EXPECT_EQ(st.detail()->site, "unit.test");

  Status copy = st;  // copies share the same detail block
  EXPECT_EQ(copy.detail(), st.detail());

  EXPECT_EQ(Status::OK().detail(), nullptr);
  EXPECT_EQ(Status::Internal("plain").detail(), nullptr);
}

// --- ExecContext -------------------------------------------------------------

TEST(ExecContextTest, DefaultContextIsUnlimited) {
  ExecContext ctx;
  EXPECT_FALSE(ctx.limited());
  EXPECT_TRUE(ctx.Check().ok());
  EXPECT_TRUE(ctx.Check(/*mem_used_bytes=*/1ull << 40).ok());
}

TEST(ExecContextTest, ExpiredDeadlineFiresWithElapsedDetail) {
  ExecContext ctx = ExecContext::WithDeadline(std::chrono::nanoseconds(0));
  EXPECT_TRUE(ctx.limited());
  Status st = ctx.Check();
  ASSERT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  ASSERT_NE(st.detail(), nullptr);
  EXPECT_GE(st.detail()->elapsed_us, st.detail()->deadline_us);
}

TEST(ExecContextTest, FarDeadlinePasses) {
  ExecContext ctx = ExecContext::WithDeadlineMs(60'000);
  EXPECT_TRUE(ctx.limited());
  EXPECT_TRUE(ctx.Check().ok());
}

TEST(ExecContextTest, CancelTokenSharedAcrossCopies) {
  CancelToken inert;
  EXPECT_FALSE(inert.cancellable());
  inert.Cancel();  // no-op, must not crash
  EXPECT_FALSE(inert.Cancelled());

  CancelToken token = CancelToken::Create();
  ExecContext ctx;
  ctx.SetCancel(token);
  EXPECT_TRUE(ctx.limited());
  EXPECT_TRUE(ctx.Check().ok());
  token.Cancel();
  Status st = ctx.Check();
  ASSERT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
}

TEST(ExecContextTest, SoftMemoryBudgetFiresWithUsageDetail) {
  ExecContext ctx;
  ctx.SetSoftMemLimit(1000);
  EXPECT_TRUE(ctx.limited());
  EXPECT_TRUE(ctx.Check(999).ok());
  Status st = ctx.Check(2000);
  ASSERT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  ASSERT_NE(st.detail(), nullptr);
  EXPECT_EQ(st.detail()->budget_used, 2000u);
  EXPECT_EQ(st.detail()->budget_limit, 1000u);
}

// --- ExecContext through the evaluators --------------------------------------

Database SmallJoinDb() {
  Database db;
  Relation p({"a"});
  for (int i = 0; i < 8; ++i) p.Add({Value::Int(i)});
  Relation q({"b"});
  for (int i = 0; i < 8; ++i) q.Add({Value::Int(i)});
  db.Put("P", std::move(p));
  db.Put("Q", std::move(q));
  return db;
}

TEST(ExecContextTest, ExpiredDeadlineStopsEvaluation) {
  Database db = SmallJoinDb();
  AlgPtr q = Join(Scan("P"), Scan("Q"), CEq("a", "b"));
  ExecContext expired = ExecContext::WithDeadline(std::chrono::nanoseconds(0));
  for (int mode = 0; mode < 3; ++mode) {
    auto res = mode == 0   ? EvalSet(q, db, EvalOptions{}, expired)
               : mode == 1 ? EvalBag(q, db, EvalOptions{}, expired)
                           : EvalSql(q, db, EvalOptions{}, expired);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::kDeadlineExceeded)
        << res.status().ToString();
  }
  // The same query without a context is unaffected.
  auto ok = EvalSet(q, db, EvalOptions{});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(ExecContextTest, PreCancelledContextStopsEvaluation) {
  Database db = SmallJoinDb();
  AlgPtr q = Join(Scan("P"), Scan("Q"), CEq("a", "b"));
  CancelToken token = CancelToken::Create();
  token.Cancel();
  ExecContext ctx;
  ctx.SetCancel(token);
  auto res = EvalSet(q, db, EvalOptions{}, ctx);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kCancelled);
}

TEST(ExecContextTest, SoftMemoryBudgetStopsEvaluation) {
  Database db = SmallJoinDb();
  // The cross product materializes 64 two-column tuples: far beyond a
  // one-byte budget, well within an unlimited one.
  AlgPtr q = Product(Scan("P"), Scan("Q"));
  ExecContext tiny;
  tiny.SetSoftMemLimit(1);
  auto res = EvalSet(q, db, EvalOptions{}, tiny);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted)
      << res.status().ToString();
  ASSERT_NE(res.status().detail(), nullptr);
  EXPECT_EQ(res.status().detail()->budget_limit, 1u);
}

TEST(ExecContextTest, CertainSweepsObserveTheContext) {
  // cert⊥ over a database with nulls enumerates a valuation family; an
  // expired deadline must abort the sweep, not just the per-world evals.
  Database db = testing_util::FigureOne(/*with_null=*/true);
  AlgPtr q = Project(Scan("Payments"), {"oid"});
  CertainOptions opts;
  opts.ctx = ExecContext::WithDeadline(std::chrono::nanoseconds(0));
  auto res = CertWithNulls(q, db, opts);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kDeadlineExceeded)
      << res.status().ToString();
  opts.ctx = ExecContext{};
  auto ok = CertWithNulls(q, db, opts);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

// --- max_tuples enforcement across every operator shape ----------------------

// Every shape routes through a different PhysNode operator; with
// max_tuples=2 and ≥3 result tuples each must trip the budget rather
// than silently materialize past it.
TEST(BudgetAuditTest, EveryOperatorShapeHonoursMaxTuples) {
  Database db;
  Relation p({"a"});
  Relation p2({"a"});
  Relation empty({"a"});
  Relation pairs({"a", "b"});
  for (int i = 0; i < 6; ++i) {
    p.Add({Value::Int(i)});
    p2.Add({Value::Int(i)});
    pairs.Add({Value::Int(i / 2), Value::Int(i % 2)});
  }
  Relation divisor({"b"});
  divisor.Add({Value::Int(0)});
  db.Put("P", std::move(p));
  db.Put("P2", std::move(p2));
  db.Put("E", std::move(empty));
  db.Put("Pairs", std::move(pairs));
  db.Put("Div", std::move(divisor));

  struct Case {
    const char* name;
    AlgPtr q;
    bool sql_ok;  ///< false: shape unsupported under EvalSql (÷, Dom).
  };
  std::vector<Case> cases;
  cases.push_back({"project", Project(Scan("Pairs"), {"a"}), true});
  cases.push_back({"filter", Select(Scan("P"), CGec("a", Value::Int(0))),
                   true});
  cases.push_back(
      {"union", Union(Scan("P"), Rename(Scan("P2"), {"a"})), true});
  cases.push_back({"diff", Diff(Scan("P"), Scan("E")), true});
  cases.push_back(
      {"intersect", Intersect(Scan("P"), Rename(Scan("P2"), {"a"})), true});
  cases.push_back({"division", Division(Scan("Pairs"), Scan("Div")), false});
  cases.push_back({"antijoin_unify", AntijoinUnify(Scan("P"), Scan("E")),
                   true});
  cases.push_back(
      {"join", Join(Scan("P"), Rename(Scan("P2"), {"b"}), CEq("a", "b")),
       true});
  cases.push_back(
      {"semijoin",
       Semijoin(Scan("P"), Rename(Scan("P2"), {"b"}), CEq("a", "b")), true});
  cases.push_back(
      {"antijoin", Antijoin(Scan("P"), Rename(Scan("E"), {"b"}),
                            CEq("a", "b")),
       true});
  cases.push_back(
      {"in_pred",
       InPredicate(Scan("P"), Rename(Scan("P2"), {"b"}), {"a"}, {"b"},
                   CTrue()),
       true});
  cases.push_back(
      {"not_in_pred",
       NotInPredicate(Scan("P"), Rename(Scan("E"), {"b"}), {"a"}, {"b"},
                      CTrue()),
       true});
  cases.push_back({"distinct", Distinct(Scan("P")), true});
  cases.push_back({"product", Product(Scan("P"), Rename(Scan("P2"), {"b"})),
                   true});

  EvalOptions tight;
  tight.max_tuples = 2;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    // Sanity: the shape succeeds with the default budget.
    auto full = EvalSet(c.q, db, EvalOptions{});
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ASSERT_GE(full->TotalSize(), 3u) << "shape too small to trip the budget";

    auto res = EvalSet(c.q, db, tight);
    ASSERT_FALSE(res.ok()) << c.name << " ignored max_tuples";
    EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted)
        << res.status().ToString();
    if (res.status().detail() != nullptr) {
      EXPECT_EQ(res.status().detail()->budget_limit, 2u);
    }
    auto bag = EvalBag(c.q, db, tight);
    ASSERT_FALSE(bag.ok()) << c.name << " (bag) ignored max_tuples";
    EXPECT_EQ(bag.status().code(), StatusCode::kResourceExhausted);
    if (c.sql_ok) {
      auto sql = EvalSql(c.q, db, tight);
      ASSERT_FALSE(sql.ok()) << c.name << " (sql) ignored max_tuples";
      EXPECT_EQ(sql.status().code(), StatusCode::kResourceExhausted);
    }
  }
}

TEST(BudgetAuditTest, ParallelOperatorsHonourMaxTuples) {
  Database db = SmallJoinDb();
  AlgPtr q = Product(Scan("P"), Scan("Q"));  // 64 tuples
  EvalOptions tight;
  tight.max_tuples = 8;
  tight.num_threads = 4;
  tight.parallel_min_rows = 0;  // 64 pairs: the pool only runs when forced
  auto res = EvalSet(q, db, tight);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted)
      << res.status().ToString();
}

// --- Streaming cursor: budget + context --------------------------------------

TEST(CursorRobustnessTest, StreamingPathHonoursMaxTuples) {
  Database db;
  Relation p({"a"});
  for (int i = 0; i < 50; ++i) p.Add({Value::Int(i)});
  db.Put("P", std::move(p));
  EvalOptions opts;
  opts.max_tuples = 3;
  Session sess(std::move(db), opts);
  auto pq = sess.Prepare(Select(Scan("P"), CGec("a", Value::Int(0))));
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  auto cur = pq->OpenCursor();
  ASSERT_TRUE(cur.ok()) << cur.status().ToString();
  ASSERT_TRUE(cur->streaming());
  int delivered = 0;
  while (cur->Next()) ++delivered;
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(cur->status().code(), StatusCode::kResourceExhausted)
      << cur->status().ToString();
  ASSERT_NE(cur->status().detail(), nullptr);
  EXPECT_EQ(cur->status().detail()->budget_limit, 3u);
}

TEST(CursorRobustnessTest, ExhaustedStreamKeepsOkStatus) {
  Database db;
  Relation p({"a"});
  for (int i = 0; i < 5; ++i) p.Add({Value::Int(i)});
  db.Put("P", std::move(p));
  Session sess(std::move(db));
  auto pq = sess.Prepare(Scan("P"));
  ASSERT_TRUE(pq.ok());
  auto cur = pq->OpenCursor();
  ASSERT_TRUE(cur.ok());
  int n = 0;
  while (cur->Next()) ++n;
  EXPECT_EQ(n, 5);
  EXPECT_TRUE(cur->status().ok()) << cur->status().ToString();
  EXPECT_FALSE(cur->Next());  // exhausted stays exhausted
}

TEST(CursorRobustnessTest, ExpiredDeadlineRejectsOpen) {
  Session sess(testing_util::FigureOne(false));
  auto pq = sess.Prepare("SELECT oid FROM Orders");
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  ExecContext expired = ExecContext::WithDeadline(std::chrono::nanoseconds(0));
  auto cur = pq->OpenCursor({}, expired);
  ASSERT_FALSE(cur.ok());
  EXPECT_EQ(cur.status().code(), StatusCode::kDeadlineExceeded)
      << cur.status().ToString();
}

TEST(CursorRobustnessTest, CancelMidDrainLatchesCancelled) {
  Database db;
  Relation p({"a"});
  for (int i = 0; i < 2000; ++i) p.Add({Value::Int(i)});
  db.Put("P", std::move(p));
  Session sess(std::move(db), [] {
    EvalOptions o;
    o.use_result_cache = false;
    return o;
  }());
  auto pq = sess.Prepare(Scan("P"));
  ASSERT_TRUE(pq.ok());
  CancelToken token = CancelToken::Create();
  ExecContext ctx;
  ctx.SetCancel(token);
  auto cur = pq->OpenCursor({}, ctx);
  ASSERT_TRUE(cur.ok()) << cur.status().ToString();
  ASSERT_TRUE(cur->Next());
  token.Cancel();
  // The amortized check fires within a bounded number of pulls.
  int extra = 0;
  while (cur->Next()) ++extra;
  EXPECT_LT(extra, 512);
  EXPECT_EQ(cur->status().code(), StatusCode::kCancelled)
      << cur->status().ToString();
  EXPECT_FALSE(cur->Next());
}

// --- Transparent stale retry -------------------------------------------------

Relation UnaryInts(const std::string& attr, std::vector<int> vals) {
  Relation r({attr});
  for (int v : vals) r.Add({Value::Int(v)});
  return r;
}

TEST(StaleRetryTest, RetriesOnceWhenRelationReappears) {
  Session sess;
  sess.Put("P", UnaryInts("a", {1, 2, 3}));
  // Project pins the prepared contract to {a}, so the relation's shape
  // can change underneath without changing what the query promises.
  auto pq = sess.Prepare(
      Project(Select(Scan("P"), CGec("a", Value::Int(0))), {"a"}));
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  ASSERT_TRUE(pq->Execute().ok());
  EXPECT_EQ(sess.stats().stale_retries, 0u);

  // Drop + re-Put with a widened schema: the stale guard fires, but the
  // recompile preserves the contract, so Execute transparently
  // re-prepares and answers against the new data.
  ASSERT_TRUE(sess.Drop("P").ok());
  Relation wide({"a", "b"});
  wide.Add({Value::Int(7), Value::Int(0)});
  wide.Add({Value::Int(8), Value::Int(0)});
  sess.Put("P", std::move(wide));
  auto res = pq->Execute();
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->TotalSize(), 2u);
  EXPECT_EQ(sess.stats().stale_retries, 1u);

  // The refreshed artefacts are installed: the next call is not stale.
  ASSERT_TRUE(pq->Execute().ok());
  EXPECT_EQ(sess.stats().stale_retries, 1u);
}

TEST(StaleRetryTest, OpenCursorRetriesToo) {
  Session sess;
  sess.Put("P", UnaryInts("a", {1, 2, 3}));
  auto pq = sess.Prepare(Project(Scan("P"), {"a"}));
  ASSERT_TRUE(pq.ok());
  ASSERT_TRUE(sess.Drop("P").ok());
  Relation wide({"a", "b"});
  wide.Add({Value::Int(4), Value::Int(0)});
  wide.Add({Value::Int(5), Value::Int(0)});
  sess.Put("P", std::move(wide));
  auto cur = pq->OpenCursor();
  ASSERT_TRUE(cur.ok()) << cur.status().ToString();
  int n = 0;
  while (cur->Next()) ++n;
  EXPECT_EQ(n, 2);
  EXPECT_EQ(sess.stats().stale_retries, 1u);
}

TEST(StaleRetryTest, DroppedRelationStillFails) {
  Session sess;
  sess.Put("P", UnaryInts("a", {1}));
  auto pq = sess.Prepare(Scan("P"));
  ASSERT_TRUE(pq.ok());
  ASSERT_TRUE(sess.Drop("P").ok());
  auto res = pq->Execute();
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(sess.stats().stale_retries, 0u);
}

TEST(StaleRetryTest, IncompatibleReshapeStillFails) {
  Session sess;
  sess.Put("P", UnaryInts("a", {1, 2}));
  auto pq = sess.Prepare(Scan("P"));
  ASSERT_TRUE(pq.ok());
  // The scan's output schema follows the relation: renaming the column
  // changes the prepared contract, so the retry must refuse.
  ASSERT_TRUE(sess.Drop("P").ok());
  sess.Put("P", UnaryInts("b", {1, 2}));
  auto res = pq->Execute();
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kFailedPrecondition)
      << res.status().ToString();
  EXPECT_EQ(sess.stats().stale_retries, 0u);
}

TEST(StaleRetryTest, CompatibleReshapeRetriesTransparently) {
  Session sess;
  Relation p({"a", "b"});
  p.Add({Value::Int(1), Value::Int(10)});
  p.Add({Value::Int(2), Value::Int(20)});
  sess.Put("P", std::move(p));
  // The query projects to {a}: widening P keeps the output contract.
  auto pq = sess.Prepare(Project(Scan("P"), {"a"}));
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  ASSERT_TRUE(sess.Drop("P").ok());
  Relation wide({"a", "b", "c"});
  wide.Add({Value::Int(5), Value::Int(50), Value::Int(500)});
  sess.Put("P", std::move(wide));
  auto res = pq->Execute();
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->TotalSize(), 1u);
  EXPECT_EQ(pq->output_attrs(), std::vector<std::string>{"a"});
  EXPECT_EQ(sess.stats().stale_retries, 1u);
}

// --- FaultInjector -----------------------------------------------------------

// The injector class is always compiled (only the *sites* are gated), so
// its determinism is testable in every build configuration.
TEST(FaultInjectorTest, DeterministicUnderSeedAndAlwaysStructured) {
  FaultInjector& fi = FaultInjector::Global();
  auto roll_codes = [&](uint64_t seed, int n) {
    fi.Configure(seed, 0.5);
    std::vector<StatusCode> codes;
    for (int i = 0; i < n; ++i) codes.push_back(fi.MaybeFault("t.site").code());
    return codes;
  };
  std::vector<StatusCode> a = roll_codes(42, 200);
  std::vector<StatusCode> b = roll_codes(42, 200);
  EXPECT_EQ(a, b) << "same seed must replay the same injection sequence";
  for (StatusCode c : a) {
    EXPECT_TRUE(c == StatusCode::kOk || c == StatusCode::kCancelled ||
                c == StatusCode::kResourceExhausted)
        << CodeName(c);
  }
  fi.Disable();
}

TEST(FaultInjectorTest, RateOneFiresEveryRollWithSiteDetail) {
  FaultInjector& fi = FaultInjector::Global();
  fi.Configure(7, 1.0);
  for (int i = 0; i < 9; ++i) {
    Status st = fi.MaybeFault("harness.site");
    ASSERT_FALSE(st.ok());
    ASSERT_NE(st.detail(), nullptr);
    EXPECT_EQ(st.detail()->site, "harness.site");
    EXPECT_NE(st.code(), StatusCode::kInternal);
  }
  EXPECT_EQ(fi.checks(), 9u);
  EXPECT_EQ(fi.injected(), 9u);
  fi.Disable();
  EXPECT_TRUE(fi.MaybeFault("harness.site").ok());
}

TEST(FaultInjectorTest, DisabledInjectorPassesEveryRoll) {
  FaultInjector& fi = FaultInjector::Global();
  fi.Configure(3, 0.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(fi.MaybeFault("never.fires").ok());
  }
  fi.Disable();
}

}  // namespace
}  // namespace incdb
