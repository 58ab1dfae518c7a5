// The fault sweep: the differential-fuzzer corpus re-run with the
// deterministic FaultInjector armed. The contract under injected faults
// at every site (scan resolve, node eval, materialization, pool
// dispatch, key-index build, snapshot pin, result-cache insert, c-table
// node) is strict — for plain queries, cursors, the c-table walker and
// the Q+/Q? answers of Session::CertainPlus / CertainMaybe:
//
//  * every outcome is either the bit-identical correct result or a
//    *structured* error — kCancelled / kResourceExhausted with
//    StatusDetail, never kInternal, never a crash (ASan/UBSan CI builds
//    run this suite with the sites compiled in);
//  * the session stays usable after any number of injected failures.
//
// Reproducing a sweep failure: every assertion message carries the
// (case, fault seed, rate) triple; re-run with
//   INCDB_FAULT_SEED=<seed> INCDB_FAULT_RATE=<rate>
// or call FaultInjector::Global().Configure(seed, rate) before the
// failing query — same seed ⇒ same roll sequence (single-threaded).
//
// The whole suite GTEST_SKIPs in builds without INCDB_FAULT_INJECTION
// (Release/RelWithDebInfo): the sites compile to nothing there.

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "api/session.h"
#include "approx/approx.h"
#include "core/fault.h"
#include "ctables/ceval.h"
#include "eval/eval.h"
#include "tests/testing_util.h"

namespace incdb {
namespace {

using testing_util::FreshStates;
using testing_util::RandomBagDatabase;
using testing_util::RandomDatabase;
using testing_util::RandomQueryGen;

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::strtoull(v, nullptr, 10)
                                      : fallback;
}

/// The only statuses an injected fault may surface as: kCancelled or
/// kResourceExhausted with a StatusDetail (an injected fault's names its
/// site). A genuine kResourceExhausted (budget) is indistinguishable from
/// an injected one by code — both are acceptable, and both carry a
/// detail; kInternal, anything unexpected and a bare code are not.
bool StructuredFaultOutcome(const Status& st) {
  return (st.code() == StatusCode::kCancelled ||
          st.code() == StatusCode::kResourceExhausted) &&
         st.detail() != nullptr;
}

class FaultSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!FaultInjector::CompiledIn()) {
      GTEST_SKIP() << "fault-injection sites not compiled in "
                      "(build Debug or -DINCDB_FORCE_FAULT_INJECTION=ON)";
    }
    FaultInjector::Global().Disable();
  }
  void TearDown() override { FaultInjector::Global().Disable(); }
};

// ≥200 corpus cases × ≥3 fault seeds through the full Session surface
// (snapshot pin, executor, result-cache insert) — the acceptance sweep.
TEST_F(FaultSweepTest, FuzzerCorpusUnderFaultsIsCorrectOrStructured) {
  const uint64_t cases = EnvOr("INCDB_FAULT_CASES", 200);
  const double rate = 0.05;
  std::vector<uint64_t> fault_seeds = {11, 4242, 987654321};
  if (uint64_t extra = EnvOr("INCDB_FAULT_SEED", 0)) {
    fault_seeds.push_back(extra);
  }

  std::mt19937_64 rng(EnvOr("INCDB_FUZZ_SEED", 20260730));
  RandomQueryGen gen(rng);
  FaultInjector& fi = FaultInjector::Global();
  uint64_t injected_total = 0, index_faults = 0;

  for (uint64_t i = 0; i < cases; ++i) {
    const size_t tuples = 3 + i % 4;
    Database db = (i % 2 == 0) ? RandomDatabase(rng, tuples)
                               : RandomBagDatabase(rng, tuples);
    AlgPtr q = gen.Gen(2 + static_cast<int>(i % 3));

    EvalOptions opts;
    opts.use_result_cache = (i % 3 == 0);  // exercise the insert site too
    Session sess(FreshStates(db), opts);
    auto pq = sess.Prepare(q, EvalMode::kSetSql);
    if (!pq.ok()) continue;  // corpus shape unsupported under SQL mode
    auto ref = pq->Execute();
    ASSERT_TRUE(ref.ok()) << "case " << i << " fault-free reference failed: "
                          << ref.status().ToString();

    for (uint64_t fseed : fault_seeds) {
      // The armed run is the first over its relation states, so it also
      // builds their key indexes (the exec.key_index site); the run after
      // it must build whatever a failed build left out.
      Session armed(FreshStates(db), opts);
      auto apq = armed.Prepare(q, EvalMode::kSetSql);
      ASSERT_TRUE(apq.ok()) << apq.status().ToString();
      fi.Configure(fseed, rate);
      auto res = apq->Execute();
      const uint64_t fired = fi.injected();
      fi.Disable();
      injected_total += fired;
      if (res.ok()) {
        EXPECT_TRUE(ref->SameRows(*res))
            << "case " << i << " fault_seed " << fseed << " rate " << rate
            << ": survived faults but diverged for " << q->ToString();
      } else {
        EXPECT_TRUE(StructuredFaultOutcome(res.status()))
            << "case " << i << " fault_seed " << fseed << " rate " << rate
            << ": unstructured failure " << res.status().ToString();
        const StatusDetail* d = res.status().detail();
        if (d != nullptr && d->site == "exec.key_index") ++index_faults;
      }
      // The session must shrug off any injected failure: the very next
      // fault-free execution answers bit-identically.
      auto after = apq->Execute();
      ASSERT_TRUE(after.ok())
          << "case " << i << " fault_seed " << fseed
          << ": session unusable after fault: " << after.status().ToString();
      EXPECT_TRUE(ref->SameRows(*after))
          << "case " << i << " fault_seed " << fseed
          << ": post-fault execution diverges";
    }
  }
  // The sweep is meaningless if the roll rate never actually fired.
  EXPECT_GT(injected_total, 0u) << "no fault ever injected — dead sweep";
  EXPECT_GT(index_faults, 0u) << "no key-index build ever failed";
}

// Theorem 4.7's gate with faults armed: the random corpus the sandwich
// test of approx_test runs (every query the Fig. 2 translations accept,
// its Int constants turned into placeholders and bound back), through
// Session::CertainPlus / CertainMaybe. Each armed call returns the
// unarmed answer exactly or fails structured, and the next unarmed call
// answers exactly again.
TEST_F(FaultSweepTest, CertainAnswersUnderFaultsAreExactOrStructured) {
  const uint64_t cases = EnvOr("INCDB_FAULT_CASES", 200);
  const double rate = 0.05;
  std::vector<uint64_t> fault_seeds = {11, 4242, 987654321};
  if (uint64_t extra = EnvOr("INCDB_FAULT_SEED", 0)) {
    fault_seeds.push_back(extra);
  }
  std::mt19937_64 rng(EnvOr("INCDB_FUZZ_SEED", 20260730));
  RandomQueryGen gen(rng);
  FaultInjector& fi = FaultInjector::Global();
  uint64_t qualifying = 0, injected_total = 0;
  for (int i = 0; i < 10000 && qualifying < cases; ++i) {
    Database db = RandomDatabase(rng, 3, 3, 2);
    AlgPtr q = gen.Gen(2 + i % 3);
    if (!PrepareForTranslation(q, db).ok()) continue;
    ++qualifying;
    const AlgPtr tmpl = testing_util::Parameterise(q);
    const std::vector<Value> params = testing_util::IdentityBindings(tmpl);
    Session sess(std::move(db));
    for (bool plus : {true, false}) {
      auto call = [&] {
        return plus ? sess.CertainPlus(tmpl, params)
                    : sess.CertainMaybe(tmpl, params);
      };
      auto ref = call();
      ASSERT_TRUE(ref.ok()) << q->ToString() << ": "
                            << ref.status().ToString();
      for (uint64_t fseed : fault_seeds) {
        // Offset by the case, so faults land on different sites per query.
        const uint64_t seed = fseed + qualifying;
        const std::string where = q->ToString() + (plus ? " Q+" : " Q?") +
                                  " fault_seed " + std::to_string(seed) +
                                  " rate " + std::to_string(rate);
        fi.Configure(seed, rate);
        auto res = call();
        injected_total += fi.injected();
        fi.Disable();
        if (res.ok()) {
          EXPECT_TRUE(ref->IdenticalTo(*res))
              << where << ": survived faults but diverged";
        } else {
          EXPECT_TRUE(StructuredFaultOutcome(res.status()))
              << where << ": unstructured failure " << res.status().ToString();
        }
        auto after = call();
        ASSERT_TRUE(after.ok()) << where << ": unusable after fault: "
                                << after.status().ToString();
        EXPECT_TRUE(ref->IdenticalTo(*after))
            << where << ": post-fault answer diverges";
      }
    }
  }
  EXPECT_EQ(qualifying, cases) << "the generator ran dry";
  EXPECT_GT(injected_total, 0u) << "no fault ever injected — dead sweep";
}

// Same sweep through the streaming-cursor surface: open + drain under
// faults either matches the reference drain or fails structured.
TEST_F(FaultSweepTest, CursorDrainUnderFaultsIsCorrectOrStructured) {
  const uint64_t cases = EnvOr("INCDB_FAULT_CURSOR_CASES", 60);
  std::mt19937_64 rng(7);
  RandomQueryGen gen(rng);
  FaultInjector& fi = FaultInjector::Global();

  for (uint64_t i = 0; i < cases; ++i) {
    Database db = RandomDatabase(rng, 3 + i % 4);
    AlgPtr q = gen.Gen(2);
    Session sess(std::move(db));
    auto pq = sess.Prepare(q, EvalMode::kSetSql);
    if (!pq.ok()) continue;
    auto ref = pq->Execute();
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();

    fi.Configure(/*seed=*/i * 31 + 5, /*rate=*/0.1);
    auto cur = pq->OpenCursor();
    if (cur.ok()) {
      Relation drained(cur->attrs());
      while (cur->Next()) {
        ASSERT_TRUE(drained.Insert(cur->row(), cur->count()).ok());
      }
      fi.Disable();
      if (cur->status().ok()) {
        EXPECT_TRUE(ref->SameRows(drained))
            << "case " << i << ": cursor drained but diverged for "
            << q->ToString();
      } else {
        EXPECT_TRUE(StructuredFaultOutcome(cur->status()))
            << "case " << i << ": " << cur->status().ToString();
      }
    } else {
      fi.Disable();
      EXPECT_TRUE(StructuredFaultOutcome(cur.status()))
          << "case " << i << ": " << cur.status().ToString();
    }
    auto after = pq->Execute();
    ASSERT_TRUE(after.ok()) << "case " << i << ": session unusable after "
                            << "cursor fault";
    EXPECT_TRUE(ref->SameRows(*after));
  }
}

// Parallel execution under faults: injected errors inside pool workers
// must propagate as structured statuses and leave the leaked pool
// reusable for the next (fault-free) run.
TEST_F(FaultSweepTest, ParallelPipelinesUnderFaultsStayReusable) {
  Database db;
  Relation l({"a", "b"}), r({"c", "d"});
  std::mt19937_64 rng(3);
  for (int i = 0; i < 400; ++i) {
    l.Add({Value::Int(i), Value::Int(static_cast<int64_t>(rng() % 16))});
    r.Add({Value::Int(i), Value::Int(static_cast<int64_t>(rng() % 16))});
  }
  db.Put("L", std::move(l));
  db.Put("Rr", std::move(r));
  AlgPtr q = Project(Select(Product(Scan("L"), Scan("Rr")), CEq("b", "d")),
                     {"a", "c"});
  EvalOptions par;
  par.num_threads = 4;
  par.parallel_min_rows = 0;  // 400 + 400 rows: the pool only runs when forced
  par.use_result_cache = false;
  Session sess(std::move(db), par);
  auto pq = sess.Prepare(q, EvalMode::kSetSql);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  auto ref = pq->Execute();
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  FaultInjector& fi = FaultInjector::Global();
  for (uint64_t fseed = 1; fseed <= 12; ++fseed) {
    fi.Configure(fseed, 0.2);
    auto res = pq->Execute();
    fi.Disable();
    if (res.ok()) {
      EXPECT_TRUE(ref->SameRows(*res)) << "fault_seed " << fseed;
    } else {
      EXPECT_TRUE(StructuredFaultOutcome(res.status()))
          << "fault_seed " << fseed << ": " << res.status().ToString();
    }
    auto after = pq->Execute();
    ASSERT_TRUE(after.ok()) << "pool poisoned by fault_seed " << fseed;
    EXPECT_TRUE(ref->SameRows(*after));
  }
}

// The c-table walker rolls "ceval.node" once per algebra node. Over the
// zoo × the four strategies × the sweep's fault seeds, every result is
// the fault-free c-table or a structured error, and the next fault-free
// call answers the fault-free c-table again. Each run arms its fault seed
// plus the run's index, so faults land on different nodes of each query.
TEST_F(FaultSweepTest, CTableWalkerUnderFaultsIsCorrectOrStructured) {
  const double rate = 0.2;
  std::vector<uint64_t> fault_seeds = {11, 4242, 987654321};
  if (uint64_t extra = EnvOr("INCDB_FAULT_SEED", 0)) {
    fault_seeds.push_back(extra);
  }
  FaultInjector& fi = FaultInjector::Global();
  uint64_t run = 0, fired_runs = 0;
  for (uint64_t db_seed = 1; db_seed <= 4; ++db_seed) {
    std::mt19937_64 rng(db_seed);
    Database db = RandomDatabase(rng, 3);
    for (const AlgPtr& q : testing_util::QueryZoo()) {
      for (CStrategy s : {CStrategy::kEager, CStrategy::kSemiEager,
                          CStrategy::kLazy, CStrategy::kAware}) {
        auto ref = CEval(q, db, s);
        ASSERT_TRUE(ref.ok()) << q->ToString() << ": "
                              << ref.status().ToString();
        const std::string want = ref->ToString();
        for (uint64_t fseed : fault_seeds) {
          const uint64_t seed = fseed + run++;
          const std::string where = q->ToString() + " strategy " +
                                    ToString(s) + " fault_seed " +
                                    std::to_string(seed) + " rate " +
                                    std::to_string(rate);
          fi.Configure(seed, rate);
          auto res = CEval(q, db, s);
          if (fi.injected() > 0) ++fired_runs;
          fi.Disable();
          if (res.ok()) {
            EXPECT_EQ(res->ToString(), want)
                << where << ": survived faults but diverged";
          } else {
            EXPECT_TRUE(StructuredFaultOutcome(res.status()))
                << where << ": unstructured failure "
                << res.status().ToString();
          }
          auto after = CEval(q, db, s);
          ASSERT_TRUE(after.ok()) << where << ": unusable after fault: "
                                  << after.status().ToString();
          EXPECT_EQ(after->ToString(), want)
              << where << ": post-fault evaluation diverges";
        }
      }
    }
  }
  EXPECT_GT(fired_runs, 0u) << "no fault ever injected — dead sweep";
}

// Determinism contract the reproduction workflow rests on: re-arming with
// the same (seed, rate) replays the same outcome for a single-threaded
// query, down to the error message.
TEST_F(FaultSweepTest, SameSeedReplaysSameOutcome) {
  Database db = testing_util::FigureOne(false);
  Session sess(std::move(db), [] {
    EvalOptions o;
    o.use_result_cache = false;  // a cache hit would skip the roll sites
    return o;
  }());
  auto pq = sess.Prepare("SELECT oid FROM Orders WHERE price > 30");
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();

  FaultInjector& fi = FaultInjector::Global();
  for (uint64_t fseed : {3u, 99u, 2026u}) {
    fi.Configure(fseed, 0.3);
    auto first = pq->Execute();
    fi.Configure(fseed, 0.3);
    auto second = pq->Execute();
    fi.Disable();
    ASSERT_EQ(first.ok(), second.ok()) << "fault_seed " << fseed;
    if (!first.ok()) {
      EXPECT_EQ(first.status().code(), second.status().code());
      EXPECT_EQ(first.status().message(), second.status().message());
    }
  }
}

}  // namespace
}  // namespace incdb
