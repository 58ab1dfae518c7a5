// Tests for the api/session.h facade: prepared parameterized queries
// amortising one compile over N bindings (asserted via the session plan
// cache stats), streaming cursors agreeing with materialised execution on
// the fuzzer corpus, concurrent Execute on one PreparedQuery, binding
// arity/type errors, EXPLAIN output and the caret-annotated SQL errors.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "api/session.h"
#include "approx/approx.h"
#include "ctables/ceval.h"
#include "sql/translate.h"
#include "tests/testing_util.h"

namespace incdb {
namespace {

using testing_util::FigureOne;
using testing_util::RandomBagDatabase;
using testing_util::RandomQueryGen;

Tuple Str(const std::string& s) { return Tuple{Value::String(s)}; }

// --- Prepared queries: one compile for N bindings ----------------------------

TEST(SessionTest, PrepareOnceExecuteManyCompilesOnce) {
  Session sess(FigureOne(false));
  auto pq = sess.Prepare("SELECT oid FROM Orders WHERE price > ?");
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  EXPECT_EQ(pq->param_count(), 1u);

  // N distinct bindings share the single compiled template.
  const int kBindings = 25;
  for (int i = 0; i < kBindings; ++i) {
    auto r = pq->Execute({Value::Int(i * 5)});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  SessionStats stats = sess.stats();
  EXPECT_EQ(stats.plan_cache.misses, 1u) << "N bindings must cost 1 compile";
  EXPECT_EQ(stats.executes, static_cast<uint64_t>(kBindings));

  // Results are the binding's, not the template's.
  auto r30 = pq->Execute({Value::Int(30)});
  auto r40 = pq->Execute({Value::Int(40)});
  auto r99 = pq->Execute({Value::Int(99)});
  ASSERT_TRUE(r30.ok() && r40.ok() && r99.ok());
  EXPECT_EQ(r30->SortedTuples(), (std::vector<Tuple>{Str("o2"), Str("o3")}));
  EXPECT_EQ(r40->SortedTuples(), std::vector<Tuple>{Str("o3")});
  EXPECT_TRUE(r99->Empty());

  // Re-preparing the same text hits the same entry.
  for (int i = 0; i < 4; ++i) {
    auto again = sess.Prepare("SELECT oid FROM Orders WHERE price > ?");
    ASSERT_TRUE(again.ok());
  }
  stats = sess.stats();
  EXPECT_EQ(stats.plan_cache.misses, 1u);
  EXPECT_EQ(stats.plan_cache.hits, 4u);
}

TEST(SessionTest, LiteralQueriesKeySeparatelyButParamsShare) {
  // The contrast the facade exists for: distinct literal constants compile
  // per constant; the parameterized shape compiles once.
  Session sess(FigureOne(false));
  ASSERT_TRUE(sess.Execute("SELECT oid FROM Orders WHERE price > 30").ok());
  ASSERT_TRUE(sess.Execute("SELECT oid FROM Orders WHERE price > 40").ok());
  EXPECT_EQ(sess.stats().plan_cache.misses, 2u);

  sess.ClearPlanCache();
  auto pq = sess.Prepare("SELECT oid FROM Orders WHERE price > ?");
  ASSERT_TRUE(pq.ok());
  ASSERT_TRUE(pq->Execute({Value::Int(30)}).ok());
  ASSERT_TRUE(pq->Execute({Value::Int(40)}).ok());
  EXPECT_EQ(sess.stats().plan_cache.misses, 3u);  // one more, total
}

TEST(SessionTest, ParameterInSubqueryBindsThroughTranslation) {
  Session sess(FigureOne(false));
  auto pq = sess.Prepare(
      "SELECT oid FROM Orders WHERE oid NOT IN "
      "( SELECT oid FROM Payments WHERE cid = ? )");
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  ASSERT_EQ(pq->param_count(), 1u);
  auto r1 = pq->Execute({Value::String("c1")});  // c1 paid o1
  auto r2 = pq->Execute({Value::String("c2")});  // c2 paid o2
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->SortedTuples(), (std::vector<Tuple>{Str("o2"), Str("o3")}));
  EXPECT_EQ(r2->SortedTuples(), (std::vector<Tuple>{Str("o1"), Str("o3")}));
  EXPECT_EQ(sess.stats().plan_cache.misses, 1u);
}

TEST(SessionTest, AlgebraPreparedParamsMatchLiteralQuery) {
  Session sess(FigureOne(true));
  AlgPtr tmpl = Project(
      Select(Scan("Orders"), CGtc("price", Value::Param(0))), {"oid"});
  AlgPtr lit =
      Project(Select(Scan("Orders"), CGtc("price", Value::Int(35))), {"oid"});
  for (EvalMode mode :
       {EvalMode::kSetNaive, EvalMode::kBagNaive, EvalMode::kSetSql}) {
    auto pq = sess.Prepare(tmpl, mode);
    ASSERT_TRUE(pq.ok()) << pq.status().ToString();
    auto bound = pq->Execute({Value::Int(35)});
    auto direct = sess.Prepare(lit, mode);
    ASSERT_TRUE(bound.ok() && direct.ok());
    auto expect = direct->Execute();
    ASSERT_TRUE(expect.ok());
    EXPECT_TRUE(bound->SameRows(*expect));
  }
}

// --- Binding validation ------------------------------------------------------

TEST(SessionTest, BindingArityAndTypeMismatchErrors) {
  Session sess(FigureOne(false));
  auto pq = sess.Prepare("SELECT oid FROM Orders WHERE price > ?");
  ASSERT_TRUE(pq.ok());

  auto none = pq->Execute({});
  EXPECT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(none.status().message().find("1 parameter"), std::string::npos);

  auto extra = pq->Execute({Value::Int(1), Value::Int(2)});
  EXPECT_FALSE(extra.ok());
  EXPECT_EQ(extra.status().code(), StatusCode::kInvalidArgument);

  // Type mismatches: nulls and parameters are not constants.
  auto null_bind = pq->Execute({Value::Null(7)});
  EXPECT_FALSE(null_bind.ok());
  EXPECT_NE(null_bind.status().message().find("constant"), std::string::npos);
  auto param_bind = pq->Execute({Value::Param(0)});
  EXPECT_FALSE(param_bind.ok());

  // A parameter-free query rejects spurious bindings.
  auto plain = sess.Prepare("SELECT oid FROM Orders");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->param_count(), 0u);
  EXPECT_FALSE(plain->Execute({Value::Int(1)}).ok());
}

TEST(SessionTest, RawExecuteRejectsUnboundTemplates) {
  // The low-level plan API refuses to run a template: parameters must be
  // bound (the predicate closures would silently compare placeholders).
  Database db = FigureOne(false);
  AlgPtr tmpl = Select(Scan("Orders"), CEqc("price", Value::Param(0)));
  auto plan = Compile(tmpl, EvalMode::kSetNaive, EvalOptions{}, db);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->param_count, 1u);
  auto run = Execute(*plan, db);
  EXPECT_FALSE(run.ok());
  EXPECT_NE(run.status().message().find("unbound parameter"),
            std::string::npos);

  auto bound = BindPlanParams(*plan, {Value::Int(35)});
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ((*bound)->param_count, 0u);
  auto ok = Execute(*bound, db);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->DistinctSize(), 1u);
}

// --- Concurrency -------------------------------------------------------------

TEST(SessionTest, ConcurrentExecuteOnOnePreparedQuery) {
  Session sess(FigureOne(false));
  auto pq = sess.Prepare("SELECT oid FROM Orders WHERE price > ?");
  ASSERT_TRUE(pq.ok());

  // Expected distinct-result sizes per threshold (prices: 30, 35, 50).
  const std::vector<std::pair<int64_t, size_t>> cases = {
      {0, 3}, {30, 2}, {35, 1}, {40, 1}, {50, 0}, {100, 0}};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        const auto& [threshold, expected] = cases[(t + i) % cases.size()];
        auto r = pq->Execute({Value::Int(threshold)});
        if (!r.ok() || r->DistinctSize() != expected) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(sess.stats().plan_cache.misses, 1u);
  EXPECT_EQ(sess.stats().executes, 400u);
}

// --- Cursors -----------------------------------------------------------------

/// Accumulates every delivery of `cur` into a relation (the cursor
/// contract: this must equal the materialised execution as a bag).
Relation Drain(Cursor& cur) {
  Relation acc(cur.attrs());
  while (cur.Next()) {
    Status st = acc.Insert(cur.row(), cur.count());
    EXPECT_TRUE(st.ok());
  }
  return acc;
}

TEST(SessionTest, CursorStreamsFilterChainsWithoutMaterialising) {
  Session sess(FigureOne(false));
  auto pq = sess.Prepare("SELECT oid FROM Orders WHERE price > ?");
  ASSERT_TRUE(pq.ok());
  auto cur = pq->OpenCursor({Value::Int(30)});
  ASSERT_TRUE(cur.ok()) << cur.status().ToString();
  EXPECT_TRUE(cur->streaming());
  EXPECT_EQ(cur->attrs(), std::vector<std::string>{"oid"});

  // Exists-style consumption: the first pull suffices.
  ASSERT_TRUE(cur->Next());
  EXPECT_EQ(cur->count(), 1u);

  auto cur2 = pq->OpenCursor({Value::Int(30)});
  ASSERT_TRUE(cur2.ok());
  Relation acc = Drain(*cur2);
  auto full = pq->Execute({Value::Int(30)});
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(acc.SameRows(*full));
}

// Crossed with the window size: at 1 and 3 the 4-row relations drain
// through many refills, at the default 1024 through one.
TEST(SessionTest, CursorMatchesExecuteOnFuzzerCorpus) {
  int compared = 0;
  for (size_t batch : {size_t{1}, size_t{3}, size_t{1024}}) {
    std::mt19937_64 rng(20260730);
    EvalOptions opts;
    opts.batch_size = batch;
    for (int round = 0; round < 12; ++round) {
      Database db = RandomBagDatabase(rng, 4, 3, 2);
      Session sess(std::move(db), opts);
      RandomQueryGen gen(rng);
      for (int i = 0; i < 6; ++i) {
        AlgPtr q = gen.Gen(3);
        for (EvalMode mode :
             {EvalMode::kSetNaive, EvalMode::kBagNaive, EvalMode::kSetSql}) {
          auto pq = sess.Prepare(q, mode);
          ASSERT_TRUE(pq.ok()) << pq.status().ToString() << "\n"
                               << q->ToString();
          auto rel = pq->Execute();
          ASSERT_TRUE(rel.ok()) << rel.status().ToString();
          auto cur = pq->OpenCursor();
          ASSERT_TRUE(cur.ok()) << cur.status().ToString();
          Relation acc = Drain(*cur);
          EXPECT_TRUE(acc.SameRows(*rel))
              << "cursor/materialised divergence at batch_size " << batch
              << " on " << q->ToString() << "\ncursor:\n"
              << acc.ToString() << "\nmaterialised:\n"
              << rel->ToString();
          ++compared;
        }
      }
    }
  }
  EXPECT_GE(compared, 600);
}

TEST(SessionTest, ZeroBatchSizeIsRejected) {
  EvalOptions opts;
  opts.batch_size = 0;
  Session sess(FigureOne(false), opts);
  auto pq = sess.Prepare("SELECT oid FROM Orders WHERE price > 30");
  ASSERT_FALSE(pq.ok());
  EXPECT_EQ(pq.status().code(), StatusCode::kInvalidArgument)
      << pq.status().ToString();
  auto plan = Compile(Scan("Orders"), EvalMode::kSetNaive, opts,
                      FigureOne(false));
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument)
      << plan.status().ToString();
}

// --- EXPLAIN -----------------------------------------------------------------

TEST(SessionTest, ExplainExposesPlanOpsAndCacheStats) {
  Session sess(FigureOne(false));
  auto pq = sess.Prepare(
      "SELECT C.name FROM Payments P, Customers C WHERE P.cid = C.cid "
      "AND C.name = ?");
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  EXPECT_GE(pq->CountPlanOps(PhysOp::kScanView), 2u);
  EXPECT_EQ(pq->CountPlanOps(PhysOp::kHashJoin), 1u);
  std::string text = pq->Explain();
  EXPECT_NE(text.find("params=1"), std::string::npos);
  EXPECT_NE(text.find("ScanView"), std::string::npos);
  EXPECT_NE(text.find("HashJoin=1"), std::string::npos);
  EXPECT_NE(text.find("misses=1"), std::string::npos) << text;
}

// --- SQL errors with positions ----------------------------------------------

TEST(SessionTest, PrepareErrorsCarryOffsetsAndSnippets) {
  Session sess(FigureOne(false));

  auto bad_col = sess.Prepare("SELECT nope FROM Orders");
  ASSERT_FALSE(bad_col.ok());
  EXPECT_NE(bad_col.status().message().find("at offset 7"), std::string::npos)
      << bad_col.status().ToString();
  EXPECT_NE(bad_col.status().message().find('^'), std::string::npos);

  auto bad_table = sess.Prepare("SELECT oid FROM Nope");
  ASSERT_FALSE(bad_table.ok());
  EXPECT_NE(bad_table.status().message().find("at offset 16"),
            std::string::npos)
      << bad_table.status().ToString();

  auto bad_where = sess.Prepare("SELECT oid FROM Orders WHERE nope = 1");
  ASSERT_FALSE(bad_where.ok());
  EXPECT_NE(bad_where.status().message().find("at offset 29"),
            std::string::npos)
      << bad_where.status().ToString();

  // Statuses without an offset pass through unchanged.
  Status plain = Status::InvalidArgument("no position here");
  EXPECT_EQ(AnnotateSqlError(plain, "SELECT 1").message(), "no position here");
}

TEST(SessionTest, CaretClampsAtEndOfInputAndTrailingWhitespace) {
  Session sess(FigureOne(false));

  // A parse error at EOF reports offset == sql.size(); with a trailing
  // newline the old renderer quoted the empty last line with the caret at
  // column 0. The caret must land under the last real token instead.
  for (const std::string& sql :
       {std::string("SELECT oid FROM Orders WHERE price >\n"),
        std::string("SELECT oid FROM Orders WHERE price >   "),
        std::string("SELECT oid FROM")}) {
    auto st = sess.Prepare(sql);
    ASSERT_FALSE(st.ok()) << sql;
    const std::string& msg = st.status().message();
    ASSERT_NE(msg.find('^'), std::string::npos) << msg;
    // The quoted snippet line is never empty ...
    EXPECT_EQ(msg.find("\n  \n"), std::string::npos) << msg;
    // ... and the caret column points inside the snippet, under its last
    // non-whitespace byte.
    size_t caret_line = msg.rfind("\n  ");
    size_t snip_start = msg.rfind("\n  ", caret_line - 1);
    ASSERT_NE(snip_start, std::string::npos) << msg;
    std::string snippet =
        msg.substr(snip_start + 3, caret_line - snip_start - 3);
    size_t caret_col = msg.size() - (caret_line + 3) - 1;
    ASSERT_LT(caret_col, snippet.size()) << msg;
    EXPECT_EQ(caret_col, snippet.find_last_not_of(" \t")) << msg;
  }

  // Direct unit check: an offset past the end clamps back onto 'B'.
  Status past = Status::InvalidArgument("boom at offset 9");
  std::string annotated = AnnotateSqlError(past, "AB\n").message();
  EXPECT_NE(annotated.find("\n  AB\n   ^"), std::string::npos) << annotated;
}

// --- Snapshots, staleness and the result cache -------------------------------

TEST(SessionTest, ExecuteAfterDropOrSchemaChangeIsFailedPrecondition) {
  Session sess(FigureOne(false));
  auto pq = sess.Prepare("SELECT oid FROM Orders WHERE price > 10");
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  ASSERT_TRUE(pq->Execute().ok());

  // Dropping a scanned relation turns the prepared query stale.
  ASSERT_TRUE(sess.Drop("Orders").ok());
  auto gone = pq->Execute();
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(gone.status().message().find("Orders"), std::string::npos);
  EXPECT_NE(gone.status().message().find("re-prepare"), std::string::npos);
  EXPECT_EQ(pq->OpenCursor().status().code(),
            StatusCode::kFailedPrecondition);

  // Re-creating it with a different schema is just as stale ...
  Relation other({"oid", "total"});
  other.Add({Value::String("o1"), Value::Int(50)});
  sess.Put("Orders", std::move(other));
  EXPECT_EQ(pq->Execute().status().code(), StatusCode::kFailedPrecondition);

  // ... but restoring the original schema makes it executable again (new
  // data, same shape).
  Relation restored({"oid", "title", "price"});
  restored.Add({Value::String("o9"), Value::String("New"), Value::Int(99)});
  sess.Put("Orders", std::move(restored));
  auto back = pq->Execute();
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->Contains(Str("o9")));

  // Unrelated mutations never affect freshness.
  sess.Put("Unrelated", Relation({"z"}));
  EXPECT_TRUE(pq->Execute().ok());
}

TEST(SessionTest, RepeatExecuteHitsResultCacheUntilDataChanges) {
  Session sess(FigureOne(false));
  auto pq = sess.Prepare("SELECT oid FROM Orders WHERE price > ?");
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();

  auto r1 = pq->Execute({Value::Int(30)});
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(sess.stats().result_cache.hits, 0u);

  // Same bindings, unchanged data: a hit with the identical relation.
  auto r2 = pq->Execute({Value::Int(30)});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(sess.stats().result_cache.hits, 1u);
  EXPECT_TRUE(r1->SameRows(*r2));
  EXPECT_EQ(r1->attrs(), r2->attrs());

  // Different bindings key separately.
  ASSERT_TRUE(pq->Execute({Value::Int(0)}).ok());
  EXPECT_EQ(sess.stats().result_cache.hits, 1u);
  EXPECT_EQ(sess.stats().result_cache.size, 2u);

  // A mutation of the scanned relation misses (fresh version stamps) and
  // eagerly dropped the dependent entries.
  Relation orders({"oid", "title", "price"});
  orders.Add({Value::String("o1"), Value::String("Big Data"), Value::Int(100)});
  sess.Put("Orders", std::move(orders));
  EXPECT_GE(sess.stats().result_cache.invalidations, 2u);
  auto r3 = pq->Execute({Value::Int(30)});
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(sess.stats().result_cache.hits, 1u);
  EXPECT_TRUE(r3->Contains(Str("o1")));
  EXPECT_FALSE(r3->SameRows(*r1));

  // Mutating a relation the query does not scan leaves its entries hot.
  sess.Put("Payments", Relation({"cid", "oid"}));
  EXPECT_TRUE(pq->Execute({Value::Int(30)}).ok());
  EXPECT_EQ(sess.stats().result_cache.hits, 2u);

  // The toggle bypasses the cache without changing results.
  EvalOptions off = sess.options();
  off.use_result_cache = false;
  sess.set_options(off);
  auto r4 = pq->Execute({Value::Int(30)});
  ASSERT_TRUE(r4.ok());
  EXPECT_TRUE(r4->SameRows(*r3));
  EXPECT_EQ(sess.stats().result_cache.hits, 2u);

  sess.ClearResultCache();
  EXPECT_EQ(sess.stats().result_cache.size, 0u);
}

// A row-level Mutate batch upgrades cached results of maintainable plans
// in place — the entry survives the commit (counted as `maintained`, not
// `invalidations`) and the next Execute is a hit carrying exactly the
// post-commit rows.
TEST(SessionTest, MutateMaintainsCachedResultsIncrementally) {
  Session sess;
  Relation r({"a", "k"});
  for (int i = 0; i < 100; ++i) r.Add({Value::Int(i), Value::Int(i % 10)});
  Relation s({"k2", "b"});
  for (int i = 0; i < 10; ++i) s.Add({Value::Int(i), Value::Int(1000 + i)});
  sess.Put("R", std::move(r));
  sess.Put("S", std::move(s));
  auto pq = sess.Prepare("SELECT a, b FROM R, S WHERE k = k2 AND a > 5");
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  ASSERT_TRUE(pq->Execute().ok());

  ASSERT_TRUE(sess.Mutate([](Database::Txn& txn) {
                    return txn.Insert("R", {Value::Int(777), Value::Int(3)});
                  })
                  .ok());
  SessionStats stats = sess.stats();
  EXPECT_EQ(stats.result_cache.maintained, 1u);
  EXPECT_EQ(stats.result_cache.invalidations, 0u);

  auto warm = pq->Execute();
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(sess.stats().result_cache.hits, 1u) << "maintained entry missed";
  EXPECT_TRUE(warm->Contains(Tuple{Value::Int(777), Value::Int(1003)}));

  // The maintained rows must be bit-identical to a cold recompute.
  EvalOptions off = sess.options();
  off.use_result_cache = false;
  sess.set_options(off);
  auto cold = pq->Execute();
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE(cold->SameRows(*warm));
  EXPECT_EQ(cold->attrs(), warm->attrs());
}

// Bag-mode maintenance handles deletions exactly (signed deltas); set
// modes fall back to invalidation on a removal (insert-only maintenance)
// — both must agree with a cold recompute.
TEST(SessionTest, MutateRemoveMaintainsBagsAndInvalidatesSets) {
  for (EvalMode mode : {EvalMode::kBagNaive, EvalMode::kSetNaive}) {
    SCOPED_TRACE(static_cast<int>(mode));
    Session sess;
    Relation r({"x"});
    r.Add({Value::Int(1)}, 2);
    r.Add({Value::Int(2)});
    r.Add({Value::Int(3)});
    sess.Put("R", std::move(r));
    auto pq = sess.Prepare("SELECT x FROM R WHERE x < 3", mode);
    ASSERT_TRUE(pq.ok()) << pq.status().ToString();
    ASSERT_TRUE(pq->Execute().ok());

    // Removing the last occurrence of 2: exact under bags, a set-level
    // deletion (post count 0) under sets → invalidation fallback.
    ASSERT_TRUE(sess.Mutate([](Database::Txn& txn) {
                      return txn.Remove("R", {Value::Int(2)});
                    })
                    .ok());
    SessionStats stats = sess.stats();
    if (mode == EvalMode::kBagNaive) {
      EXPECT_EQ(stats.result_cache.maintained, 1u);
      EXPECT_EQ(stats.result_cache.invalidations, 0u);
    } else {
      EXPECT_EQ(stats.result_cache.maintained, 0u);
      EXPECT_EQ(stats.result_cache.invalidations, 1u);
    }
    auto got = pq->Execute();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->Count(Tuple{Value::Int(1)}),
              mode == EvalMode::kBagNaive ? 2u : 1u);
    EXPECT_EQ(got->Count(Tuple{Value::Int(2)}), 0u);

    EvalOptions off = sess.options();
    off.use_result_cache = false;
    sess.set_options(off);
    auto cold = pq->Execute();
    ASSERT_TRUE(cold.ok());
    EXPECT_TRUE(cold->SameRows(*got));
  }
}

// The maintenance toggle: with use_result_maintenance off, a row-level
// commit invalidates instead of maintaining (and results stay correct).
TEST(SessionTest, MaintenanceToggleFallsBackToInvalidation) {
  EvalOptions opts;
  opts.use_result_maintenance = false;
  Session sess(Database{}, opts);
  Relation r({"x"});
  r.Add({Value::Int(1)});
  sess.Put("R", std::move(r));
  auto pq = sess.Prepare("SELECT x FROM R");
  ASSERT_TRUE(pq.ok());
  ASSERT_TRUE(pq->Execute().ok());
  ASSERT_TRUE(sess.Mutate([](Database::Txn& txn) {
                    return txn.Insert("R", {Value::Int(2)});
                  })
                  .ok());
  SessionStats stats = sess.stats();
  EXPECT_EQ(stats.result_cache.maintained, 0u);
  EXPECT_EQ(stats.result_cache.invalidations, 1u);
  auto got = pq->Execute();
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->Contains(Tuple{Value::Int(2)}));
}

// Put of a relation identical to the current one is a no-op: the version
// stamp keeps, cached results survive, nothing is invalidated.
TEST(SessionTest, PutOfIdenticalRelationKeepsCacheAndVersion) {
  Session sess;
  Relation r({"x"});
  r.Add({Value::Int(1)});
  Relation copy = r;
  sess.Put("R", std::move(r));
  const uint64_t ver = sess.db().Version("R");
  auto pq = sess.Prepare("SELECT x FROM R");
  ASSERT_TRUE(pq.ok());
  ASSERT_TRUE(pq->Execute().ok());
  ASSERT_TRUE(pq->Execute().ok());
  EXPECT_EQ(sess.stats().result_cache.hits, 1u);

  sess.Put("R", std::move(copy));  // identical contents: no-op
  EXPECT_EQ(sess.db().Version("R"), ver);
  EXPECT_EQ(sess.stats().result_cache.invalidations, 0u);
  ASSERT_TRUE(pq->Execute().ok());
  EXPECT_EQ(sess.stats().result_cache.hits, 2u) << "entry must stay hot";

  // Different contents still bump + invalidate.
  Relation other({"x"});
  other.Add({Value::Int(2)});
  sess.Put("R", std::move(other));
  EXPECT_NE(sess.db().Version("R"), ver);
  EXPECT_GE(sess.stats().result_cache.invalidations, 1u);
  auto got = pq->Execute();
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->Contains(Tuple{Value::Int(2)}));
}

// The late-insert guard closes the invalidate-then-reinsert window: an
// insert whose dependency stamps predate the latest invalidation floor
// for that relation is refused (the result was computed against a state
// the sweep already declared dead).
TEST(SessionTest, ResultCacheRefusesInsertsBehindTheInvalidationFloor) {
  ResultCache cache;
  auto stale = std::make_shared<Relation>(std::vector<std::string>{"x"});
  cache.InvalidateRelation("R", /*floor=*/10);
  cache.Insert("h", stale, {{"R", 9}}, /*uses_dom=*/false, /*epoch=*/0,
               /*maintainable=*/false, nullptr);
  EXPECT_EQ(cache.stats().late_drops, 1u);
  EXPECT_EQ(cache.stats().size, 0u);
  // At or above the floor the insert lands.
  cache.Insert("h", stale, {{"R", 10}}, false, 0, false, nullptr);
  EXPECT_EQ(cache.stats().size, 1u);
  // Dom-bearing entries are floored by epoch: Put/Drop sweeps cover "*".
  cache.Insert("g", stale, {}, /*uses_dom=*/true, /*epoch=*/9, false,
               nullptr);
  EXPECT_EQ(cache.stats().late_drops, 2u);
}

TEST(SessionTest, MutateCommitsAtomicBatchesAndInvalidatesExactly) {
  Session sess(FigureOne(false));
  auto orders = sess.Prepare("SELECT oid FROM Orders");
  auto customers = sess.Prepare("SELECT name FROM Customers");
  ASSERT_TRUE(orders.ok() && customers.ok());
  ASSERT_TRUE(orders->Execute().ok());
  ASSERT_TRUE(customers->Execute().ok());
  ASSERT_TRUE(orders->Execute().ok());  // both cached now
  ASSERT_TRUE(customers->Execute().ok());
  EXPECT_EQ(sess.stats().result_cache.hits, 2u);

  // One batch touching Orders only: Customers entries stay hot.
  Status st = sess.Mutate([](Database::Txn& txn) {
    Relation r({"oid", "title", "price"});
    r.Add({Value::String("o7"), Value::String("Graphs"), Value::Int(7)});
    txn.Put("Orders", std::move(r));
    return Status::OK();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto after = orders->Execute();
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->Contains(Str("o7")));
  ASSERT_TRUE(customers->Execute().ok());
  EXPECT_EQ(sess.stats().result_cache.hits, 3u) << "Customers stayed cached";

  // A failing mutator discards the whole staged batch.
  Status fail = sess.Mutate([](Database::Txn& txn) {
    txn.Put("Orders", Relation({"nope"}));
    return Status::InvalidArgument("abort");
  });
  EXPECT_EQ(fail.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(orders->Execute().ok()) << "aborted batch left schema intact";
}

TEST(SessionTest, CursorPinsItsSnapshotAcrossCommits) {
  Session sess(FigureOne(false));
  auto pq = sess.Prepare("SELECT oid FROM Orders");
  ASSERT_TRUE(pq.ok());
  auto cur = pq->OpenCursor();
  ASSERT_TRUE(cur.ok());

  // Drop the relation under the open cursor; the pinned snapshot keeps
  // the borrowed rows alive and the drain sees the pre-drop version.
  ASSERT_TRUE(sess.Drop("Orders").ok());
  size_t rows = 0;
  while (cur->Next()) ++rows;
  EXPECT_EQ(rows, 3u);
}

// --- Certain-answer wrappers -------------------------------------------------

TEST(SessionTest, CertainWrappersBindParamsBeforeTranslation) {
  Session sess(FigureOne(true));
  // Unpaid orders with price ≠ ? (disequality keeps the query generic, so
  // the exact machinery accepts it): Q+ must stay sound under bindings.
  AlgPtr tmpl = NotInPredicate(
      Project(Select(Scan("Orders"), CNeqc("price", Value::Param(0))), {"oid"}),
      Rename(Project(Scan("Payments"), {"oid"}), {"poid"}), {"oid"}, {"poid"},
      CTrue());
  auto bound_lit = BindParams(tmpl, {Value::Int(40)});
  ASSERT_TRUE(bound_lit.ok());

  auto plus = sess.CertainPlus(tmpl, {Value::Int(40)});
  auto maybe = sess.CertainMaybe(tmpl, {Value::Int(40)});
  auto cert = sess.CertainWithNulls(tmpl, {Value::Int(40)});
  ASSERT_TRUE(plus.ok()) << plus.status().ToString();
  ASSERT_TRUE(maybe.ok() && cert.ok());

  auto plus_direct = EvalPlus(*bound_lit, sess.db());
  auto cert_direct = CertWithNulls(*bound_lit, sess.db());
  ASSERT_TRUE(plus_direct.ok() && cert_direct.ok());
  EXPECT_TRUE(plus->SameRows(*plus_direct));
  EXPECT_TRUE(cert->SameRows(*cert_direct));
  // Soundness/completeness sandwich on the bound query.
  for (const Tuple& t : plus->SortedTuples()) {
    EXPECT_TRUE(cert->Contains(t));
  }
  for (const Tuple& t : cert->SortedTuples()) {
    EXPECT_TRUE(maybe->Contains(t));
  }

  // Unbound or mistyped Certain* calls fail fast.
  EXPECT_FALSE(sess.CertainPlus(tmpl, {}).ok());
  EXPECT_FALSE(sess.CertainPlus(tmpl, {Value::Null(1)}).ok());
}

TEST(SessionTest, DomExtraParameterBindsInAlgebraAndPlan) {
  // A placeholder may sit in a Dom extra, not only in a condition: it is
  // counted, substituted by BindParams and by the prepared plan's binding.
  Session sess(FigureOne(true));
  AlgPtr q = DomK(1, {Value::Param(0)});
  EXPECT_EQ(ParamCount(q), 1u);
  auto bound = BindParams(q, {Value::Int(99)});
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ(ParamCount(*bound), 0u);
  EXPECT_EQ(QueryConstants(*bound), std::vector<Value>{Value::Int(99)});

  auto pq = sess.Prepare(q, EvalMode::kSetNaive);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  EXPECT_EQ(pq->param_count(), 1u);
  auto prepared = pq->Execute({Value::Int(99)});
  auto direct = EvalSet(*bound, sess.db());
  ASSERT_TRUE(prepared.ok() && direct.ok()) << prepared.status().ToString();
  EXPECT_TRUE(prepared->Contains(Tuple{Value::Int(99)}));
  EXPECT_TRUE(prepared->IdenticalTo(*direct));
}

TEST(SessionTest, MalformedInColumnListsAreInvalidArgument) {
  // Hand-built [NOT] IN nodes whose compare lists differ in length or are
  // empty. Every path that can answer them rejects them with OutputAttrs'
  // message, instead of reading past the shorter list or answering as if
  // the predicate were EXISTS.
  Session sess(FigureOne(true));
  const AlgPtr orders = Project(Scan("Orders"), {"oid", "price"});
  const AlgPtr payments = Rename(Scan("Payments"), {"pcid", "poid"});
  std::vector<AlgPtr> cases;
  for (auto* in : {&InPredicate, &NotInPredicate}) {
    cases.push_back(in(orders, payments, {"oid", "price"}, {"poid"}, CTrue()));
    cases.push_back(in(orders, payments, {}, {}, CTrue()));
  }
  for (const AlgPtr& q : cases) {
    const Status want = OutputAttrs(q, sess.db()).status();
    ASSERT_EQ(want.code(), StatusCode::kInvalidArgument) << q->ToString();
    auto expect_rejected = [&](const Status& got, const char* path) {
      EXPECT_EQ(got.code(), StatusCode::kInvalidArgument)
          << path << " " << q->ToString() << ": " << got.ToString();
      EXPECT_EQ(got.message(), want.message()) << path << " " << q->ToString();
    };
    for (EvalMode mode :
         {EvalMode::kSetNaive, EvalMode::kBagNaive, EvalMode::kSetSql}) {
      expect_rejected(sess.Prepare(q, mode).status(), "Prepare");
    }
    expect_rejected(EvalSql(q, sess.db()).status(), "EvalSql");
    expect_rejected(sess.CertainPlus(q).status(), "CertainPlus");
    expect_rejected(sess.CertainMaybe(q).status(), "CertainMaybe");
    expect_rejected(sess.CertainWithNulls(q).status(), "CertainWithNulls");
  }
}

TEST(SessionTest, CEvalResolvesParamsAtInstantiation) {
  Database db = FigureOne(true);
  // (In)equality only: the [36] strategies have no order atoms.
  AlgPtr tmpl = Project(
      Select(Scan("Orders"), CEqc("price", Value::Param(0))), {"oid"});
  auto bound = BindParams(tmpl, {Value::Int(35)});
  ASSERT_TRUE(bound.ok());
  for (CStrategy s : {CStrategy::kEager, CStrategy::kSemiEager,
                      CStrategy::kLazy, CStrategy::kAware}) {
    auto with_params = CEvalCertain(tmpl, db, s, {Value::Int(35)});
    auto literal = CEvalCertain(*bound, db, s);
    ASSERT_TRUE(with_params.ok()) << with_params.status().ToString();
    ASSERT_TRUE(literal.ok());
    EXPECT_TRUE(with_params->SameRows(*literal)) << ToString(s);
  }
  // Unbound placeholders are an error, not a silent mis-evaluation.
  EXPECT_FALSE(CEvalCertain(tmpl, db, CStrategy::kEager).ok());
}

}  // namespace
}  // namespace incdb
