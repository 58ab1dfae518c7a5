// Reader/writer torture tests for the snapshot-versioned Database behind
// the Session facade: N threads Execute and drain cursors while a writer
// thread commits batched mutations. Every observed result must match
// exactly one committed version — a torn read (half of one batch, half of
// another) is the failure mode these tests exist to catch. Run under
// ASan/TSan in CI (the sanitize and tsan jobs build this suite).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "core/key_index.h"
#include "tests/testing_util.h"
#include "tpch/tpch.h"

namespace incdb {
namespace {

Relation OneInt(const std::string& attr, int64_t v) {
  Relation r({attr});
  r.Add({Value::Int(v)});
  return r;
}

// A committed version i is the pair A = {(i)}, B = {(i)} published in one
// batch; the invariant of SELECT x, y FROM A, B is one row with x == y.
TEST(ConcurrencyTest, ReadersSeeExactlyOneCommittedVersion) {
  Session sess;
  sess.Put("A", OneInt("x", 0));
  sess.Put("B", OneInt("y", 0));
  auto pq = sess.Prepare("SELECT x, y FROM A, B");
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();

  constexpr int kCommits = 300;
  constexpr int kReaders = 4;
  std::atomic<bool> done{false};
  std::atomic<int> torn{0}, errors{0};

  auto check = [&](const Relation& rel) {
    if (rel.rows().size() != 1) {
      torn.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const Tuple& t = rel.rows()[0].first;
    const int64_t x = t[0].as_int(), y = t[1].as_int();
    if (x != y || x < 0 || x > kCommits) {
      torn.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!done.load(std::memory_order_relaxed)) {
        if (r % 2 == 0) {
          auto res = pq->Execute();
          if (!res.ok()) {
            errors.fetch_add(1, std::memory_order_relaxed);
          } else {
            check(*res);
          }
        } else {
          auto cur = pq->OpenCursor();
          if (!cur.ok()) {
            errors.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          Relation drained({"x", "y"});
          while (cur->Next()) {
            ASSERT_TRUE(drained.Insert(cur->row(), cur->count()).ok());
          }
          check(drained);
        }
      }
    });
  }

  for (int i = 1; i <= kCommits; ++i) {
    Status st = sess.Mutate([i](Database::Txn& txn) {
      txn.Put("A", OneInt("x", i));
      txn.Put("B", OneInt("y", i));
      return Status::OK();
    });
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& th : readers) th.join();

  EXPECT_EQ(torn.load(), 0) << "a reader observed a torn half-commit";
  EXPECT_EQ(errors.load(), 0);

  auto final = pq->Execute();
  ASSERT_TRUE(final.ok());
  EXPECT_TRUE(final->Contains(Tuple{Value::Int(kCommits),
                                    Value::Int(kCommits)}));
}

// Dropping and re-creating a scanned relation under concurrent readers:
// the only legal outcomes are a clean result satisfying the invariant or
// a structured kFailedPrecondition from the stale guard — never a crash,
// a torn row or a use-after-free (ASan backs this up).
TEST(ConcurrencyTest, DropAndRestoreUnderReadersIsAlwaysClean) {
  Session sess;
  sess.Put("R", OneInt("x", 0));
  auto pq = sess.Prepare("SELECT x FROM R");
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();

  constexpr int kCycles = 200;
  std::atomic<bool> done{false};
  std::atomic<int> bad{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        auto res = pq->Execute();
        if (res.ok()) {
          if (res->rows().size() != 1) {
            bad.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (res.status().code() != StatusCode::kFailedPrecondition) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (int i = 1; i <= kCycles; ++i) {
    ASSERT_TRUE(sess.Drop("R").ok());
    sess.Put("R", OneInt("x", i));
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& th : readers) th.join();
  EXPECT_EQ(bad.load(), 0);
}

// Cursors pin the snapshot they opened on: a cursor opened before a burst
// of commits drains the version it started from, bit-for-bit.
TEST(ConcurrencyTest, OpenCursorsDrainTheirPinnedVersion) {
  Session sess;
  Relation r({"x"});
  for (int i = 0; i < 64; ++i) r.Add({Value::Int(i)});
  sess.Put("R", std::move(r));
  auto pq = sess.Prepare("SELECT x FROM R");
  ASSERT_TRUE(pq.ok());

  auto cur = pq->OpenCursor();
  ASSERT_TRUE(cur.ok());

  std::thread writer([&] {
    for (int i = 0; i < 100; ++i) {
      sess.Put("R", OneInt("x", 1000 + i));
    }
  });
  size_t rows = 0;
  bool all_pre_commit = true;
  while (cur->Next()) {
    ++rows;
    if (cur->row()[0].as_int() >= 1000) all_pre_commit = false;
  }
  writer.join();
  EXPECT_EQ(rows, 64u);
  EXPECT_TRUE(all_pre_commit) << "cursor leaked rows from a later version";
}

// The result cache must never serve a result from a different version
// than the snapshot of the Execute that asked: hammer one hot query from
// many threads while versions churn, and cross-check every answer against
// the x == y invariant (stale-but-consistent is impossible to distinguish
// from a pinned snapshot; torn or mixed-version rows are not).
TEST(ConcurrencyTest, ResultCacheNeverMixesVersionsUnderChurn) {
  Session sess;
  sess.Put("A", OneInt("x", 0));
  sess.Put("B", OneInt("y", 0));
  auto pq = sess.Prepare("SELECT x, y FROM A, B");
  ASSERT_TRUE(pq.ok());

  constexpr int kCommits = 150;
  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 6; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        auto res = pq->Execute();
        if (!res.ok() || res->rows().size() != 1 ||
            res->rows()[0].first[0] != res->rows()[0].first[1]) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 1; i <= kCommits; ++i) {
    ASSERT_TRUE(sess.Mutate([i](Database::Txn& txn) {
                  txn.Put("A", OneInt("x", i));
                  txn.Put("B", OneInt("y", i));
                  return Status::OK();
                }).ok());
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& th : readers) th.join();
  EXPECT_EQ(bad.load(), 0);
  // Once the churn stops the cache serves hits again (under churn every
  // commit rightly forced a miss — fresh version stamps).
  const uint64_t before = sess.stats().result_cache.hits;
  ASSERT_TRUE(pq->Execute().ok());
  ASSERT_TRUE(pq->Execute().ok());
  EXPECT_GT(sess.stats().result_cache.hits, before);
}

// Invalidation walks the relation → entries reverse index, so a commit to
// one relation drops exactly its dependents and never scans (or drops)
// the rest of the cache. Structural regression for the index: with N
// relations each backing one cached entry, touching one must cost exactly
// one invalidation and leave the other N-1 entries hot.
TEST(ConcurrencyTest, InvalidationSweepsOnlyDependentEntries) {
  Session sess;
  constexpr int kRels = 64;
  for (int i = 0; i < kRels; ++i) {
    sess.Put("R" + std::to_string(i), OneInt("x", i));
  }
  std::vector<PreparedQuery> pqs;
  for (int i = 0; i < kRels; ++i) {
    auto pq = sess.Prepare("SELECT x FROM R" + std::to_string(i));
    ASSERT_TRUE(pq.ok()) << pq.status().ToString();
    ASSERT_TRUE(pq->Execute().ok());
    pqs.push_back(*pq);
  }
  ASSERT_EQ(sess.stats().result_cache.size, static_cast<size_t>(kRels));

  sess.Put("R7", OneInt("x", 777));
  ResultCacheStats after = sess.stats().result_cache;
  EXPECT_EQ(after.invalidations, 1u) << "swept more than the dependents";
  EXPECT_EQ(after.size, static_cast<size_t>(kRels - 1));

  // Every untouched entry must still be served from the cache.
  const uint64_t hits_before = after.hits;
  for (int i = 0; i < kRels; ++i) {
    if (i == 7) continue;
    ASSERT_TRUE(pqs[static_cast<size_t>(i)].Execute().ok());
  }
  EXPECT_EQ(sess.stats().result_cache.hits,
            hits_before + static_cast<uint64_t>(kRels - 1));

  // Row-level commits split the sweep the same way: one maintained entry,
  // zero invalidations, everything else untouched.
  ASSERT_TRUE(sess.Mutate([](Database::Txn& txn) {
                    return txn.Insert("R3", {Value::Int(333)});
                  })
                  .ok());
  ResultCacheStats maint = sess.stats().result_cache;
  EXPECT_EQ(maint.maintained, 1u);
  EXPECT_EQ(maint.invalidations, 1u) << "maintenance must not invalidate";
  EXPECT_EQ(maint.size, static_cast<size_t>(kRels - 1));
}

// A cursor destroyed mid-stream while a writer drops and re-creates the
// scanned relation must release its pinned snapshot cleanly — no leak, no
// use-after-free (ASan/LSan back this up), and the session stays usable.
TEST(ConcurrencyTest, CursorDestroyedMidStreamUnderDropReleasesSnapshot) {
  Session sess;
  Relation r({"x"});
  for (int i = 0; i < 4096; ++i) r.Add({Value::Int(i)});
  sess.Put("R", std::move(r));
  auto pq = sess.Prepare("SELECT x FROM R");
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();

  for (int round = 0; round < 40; ++round) {
    auto cur = pq->OpenCursor();
    if (!cur.ok()) {
      // A round may open between the drop and the re-put; the structured
      // stale error is the only acceptable failure.
      EXPECT_EQ(cur.status().code(), StatusCode::kFailedPrecondition);
      continue;
    }
    for (int k = 0; k < 5 && cur->Next(); ++k) {
    }
    std::thread writer([&, round] {
      EXPECT_TRUE(sess.Drop("R").ok());
      sess.Put("R", OneInt("x", round));
    });
    // Abandon the cursor mid-stream while the writer churns: the pinned
    // snapshot (holding the rows the cursor was borrowing) must die with
    // the cursor, not outlive it.
    cur = Cursor();
    writer.join();
  }
  auto res = pq->Execute();
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->rows().size(), 1u);
}

// The deadline/cancellation scaffolding for the join tests below: two
// relations whose θ-join (≠, not hash-joinable) visits 36M pairs — big
// enough that a 10 ms deadline or a mid-flight Cancel() always lands
// inside the operator loops, even with 8 threads on the columnar kernel
// (≈40 ms at best on a 4-core x86-64 box), small enough to finish if a
// check is missed.
Session NLJoinSession(size_t threads) {
  Database db;
  Relation r({"a", "k"}), s({"b", "k2"});
  // Distinct ids keep the scans set-shaped at 6000 rows each; the
  // mostly-equal join keys keep the ≠-join's *output* tiny (≈60k rows)
  // while its pair-visit count stays at 36M — the loops run long, memory
  // stays flat even when a test lets the query run to completion.
  for (int i = 0; i < 6000; ++i) {
    r.Add({Value::Int(i), Value::Int(i < 10 ? 2 : 1)});
    s.Add({Value::Int(i), Value::Int(1)});
  }
  db.Put("R", std::move(r));
  db.Put("S", std::move(s));
  EvalOptions opts;
  opts.num_threads = threads;
  opts.use_result_cache = false;  // every Execute must really execute
  return Session(std::move(db), opts);
}

const char* kNLJoinSql = "SELECT a, b FROM R, S WHERE k <> k2";

// Acceptance: a 10 ms deadline on an NL-join-scale query returns
// kDeadlineExceeded promptly at 1, 2 and 8 threads, and the same session
// answers a subsequent query correctly (pool reusable, no poisoning).
TEST(ConcurrencyTest, DeadlineExpiresPromptlyAcrossThreadCounts) {
  for (size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    Session sess = NLJoinSession(threads);
    auto pq = sess.Prepare(kNLJoinSql);
    ASSERT_TRUE(pq.ok()) << pq.status().ToString();

    auto start = std::chrono::steady_clock::now();
    auto res = pq->Execute({}, ExecContext::WithDeadlineMs(10));
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    ASSERT_FALSE(res.ok()) << "join of this scale cannot finish in 10ms";
    EXPECT_EQ(res.status().code(), StatusCode::kDeadlineExceeded)
        << res.status().ToString();
    // Checkpoints are every 4096 pair visits, so the overshoot is a few
    // thousand condition evaluations; the bound is generous for
    // sanitizer-instrumented CI, not a perf claim (see bench_micro).
    EXPECT_LT(elapsed.count(), 2000) << "deadline ignored for too long";

    // The pool and session survive: the same query, un-deadlined, runs to
    // completion with a correct row count afterwards.
    auto full = pq->Execute();
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    EXPECT_GT(full->TotalSize(), 0u);
  }
}

// Acceptance: a second thread cancels a parallel NL join mid-flight; the
// query returns kCancelled, partial results are discarded, and the pool
// answers the next query on the same session.
TEST(ConcurrencyTest, SecondThreadCancelsParallelNLJoin) {
  Session sess = NLJoinSession(/*threads=*/4);
  auto pq = sess.Prepare(kNLJoinSql);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();

  CancelToken token = CancelToken::Create();
  ExecContext ctx;
  ctx.SetCancel(token);
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    token.Cancel();
  });
  auto res = pq->Execute({}, ctx);
  canceller.join();
  ASSERT_FALSE(res.ok()) << "cancellation never observed";
  EXPECT_EQ(res.status().code(), StatusCode::kCancelled)
      << res.status().ToString();

  // Partial results were discarded, the pool is reusable, and an
  // untouched context leaves the rerun unaffected.
  auto full = pq->Execute();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  auto again = pq->Execute();
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(full->SameRows(*again));
}

// perfbench's W1: its NOT IN is a ▷ that probes lineitem in place, with
// null-aware keys in SQL mode and plain ones in set mode. Eight readers
// race to build lineitem's two key indexes in its state's memo and then
// probe them, while a writer commits to customer, which W1 does not read:
// lineitem keeps its state and memo. Every answer is the one computed
// before the threads start, row for row.
TEST(ConcurrencyTest, ReadersShareOneRelationStatesKeyIndexes) {
  tpch::GenOptions gen;
  gen.scale = 0.25;
  gen.null_rate = 0.05;
  gen.seed = 7;
  EvalOptions opts;
  opts.use_result_cache = false;  // every Execute runs the plan
  Session sess(tpch::Generate(gen), opts);
  const std::string w1 =
      "SELECT o_orderkey FROM orders WHERE o_totalprice > ? AND o_orderkey "
      "NOT IN ( SELECT l_orderkey FROM lineitem )";
  const EvalMode modes[] = {EvalMode::kSetSql, EvalMode::kSetNaive};
  const int64_t bindings[] = {0, 20000, 100000};
  std::vector<PreparedQuery> pqs;
  std::vector<Relation> want;  // per (mode, binding), on copied relations
  for (EvalMode mode : modes) {
    auto pq = sess.Prepare(w1, mode);
    ASSERT_TRUE(pq.ok()) << pq.status().ToString();
    pqs.push_back(*pq);
    for (int64_t b : bindings) {
      Session ref(testing_util::FreshStates(sess.db()), opts);
      auto res = ref.Execute(w1, {Value::Int(b)}, mode);
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      want.push_back(*std::move(res));
    }
  }
  EXPECT_GT(want[3].rows().size(), 0u) << "set mode keeps some orders";
  const Database before = sess.db().Snapshot();

  constexpr int kReaders = 8;
  constexpr int kRuns = 24;
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int k = 0; k < kRuns; ++k) {
        const size_t m = static_cast<size_t>(r + k) % 2;
        const size_t b = static_cast<size_t>(r + k) % 3;
        auto res = pqs[m].Execute({Value::Int(bindings[b])});
        if (!res.ok() || !res->IdenticalTo(want[3 * m + b])) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  const Relation& customer = before.at("customer");
  const Tuple row = customer.rows().front().first;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(sess.Mutate([&](Database::Txn& txn) {
                      return i % 2 == 0 ? txn.Remove("customer", row)
                                        : txn.Insert("customer", row);
                    })
                    .ok());
  }
  for (std::thread& th : readers) th.join();
  EXPECT_EQ(bad.load(), 0);
  const Database after = sess.db().Snapshot();
  EXPECT_NE(after.Version("customer"), before.Version("customer"));
  EXPECT_EQ(after.KeyIndexes("lineitem"), before.KeyIndexes("lineitem"))
      << "commits to customer keep lineitem's state and its indexes";
}

}  // namespace
}  // namespace incdb
