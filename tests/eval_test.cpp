// Tests for src/eval: naive set evaluation, bag evaluation and the SQL 3VL
// evaluator, including the paper's §1 motivating examples (Figure 1).
// The Figure-1 fixture runs through the Session facade (algebra-prepare
// path); the remaining tests cover the EvalSet/EvalBag/EvalSql shims.

#include <gtest/gtest.h>

#include "api/session.h"
#include "eval/eval.h"
#include "tests/testing_util.h"

namespace incdb {
namespace {

using testing_util::FigureOne;

Tuple Str(const std::string& s) { return Tuple{Value::String(s)}; }

// --- The paper's running example (§1) ---------------------------------------

class FigureOneTest : public ::testing::Test {
 protected:
  // Unpaid orders: π_oid(Orders) NOT IN π_oid(Payments).
  AlgPtr UnpaidOrders() {
    return NotInPredicate(Project(Scan("Orders"), {"oid"}),
                          Rename(Project(Scan("Payments"), {"oid"}),
                                 {"poid"}),
                          {"oid"}, {"poid"}, CTrue());
  }
  // Customers without a paid order: NOT EXISTS (orders joined payments).
  AlgPtr CustomersNoPaidOrder() {
    AlgPtr sub = Join(Rename(Scan("Orders"), {"o_oid", "title", "price"}),
                      Rename(Scan("Payments"), {"p_cid", "p_oid"}),
                      CEq("p_oid", "o_oid"));
    return Project(Antijoin(Scan("Customers"), sub, CEq("cid", "p_cid")),
                   {"cid"});
  }
};

TEST_F(FigureOneTest, CompleteDatabaseBehavesClassically) {
  Session sess(FigureOne(false));
  auto unpaid = sess.Prepare(UnpaidOrders());
  ASSERT_TRUE(unpaid.ok()) << unpaid.status().ToString();
  auto r1 = unpaid->Execute();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->SortedTuples(), std::vector<Tuple>{Str("o3")});

  auto nopaid = sess.Prepare(CustomersNoPaidOrder());
  ASSERT_TRUE(nopaid.ok());
  auto r2 = nopaid->Execute();
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->Empty());
}

TEST_F(FigureOneTest, OneNullFlipsBothAnswers) {
  // The paper's headline: replace one value by NULL and SQL both *misses*
  // an answer (unpaid orders loses o3 — a false negative w.r.t. SQL's own
  // complete-data behaviour) and *invents* one (c2 — a false positive
  // w.r.t. certain answers).
  Session sess(FigureOne(true));
  auto unpaid = sess.Prepare(UnpaidOrders());
  ASSERT_TRUE(unpaid.ok());
  auto r1 = unpaid->Execute();
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->Empty());  // NOT IN against a NULL wipes everything

  auto nopaid = sess.Prepare(CustomersNoPaidOrder());
  ASSERT_TRUE(nopaid.ok());
  auto r2 = nopaid->Execute();
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->SortedTuples(), std::vector<Tuple>{Str("c2")});
}

TEST_F(FigureOneTest, TautologySelectionLosesC2) {
  // SELECT cid FROM Payments WHERE oid = ? OR oid <> ?  bound at 'o2'
  // returns only c1 on the NULL database; certain answer is {c1, c2}.
  Session sess(FigureOne(true));
  AlgPtr q = Project(Select(Scan("Payments"),
                            COr(CEqc("oid", Value::Param(0)),
                                CNeqc("oid", Value::Param(0)))),
                     {"cid"});
  auto pq = sess.Prepare(q);  // SQL 3VL discipline
  ASSERT_TRUE(pq.ok());
  auto res = pq->Execute({Value::String("o2")});
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->SortedTuples(), std::vector<Tuple>{Str("c1")});
  // Naive evaluation (two-valued) keeps both.
  auto naive = sess.Prepare(q, EvalMode::kSetNaive);
  ASSERT_TRUE(naive.ok());
  auto r2 = naive->Execute({Value::String("o2")});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->SortedTuples().size(), 2u);
}

// --- Naive set evaluation ----------------------------------------------------

TEST(EvalSetTest, DifferenceIsSyntactic) {
  // {1} − {⊥} = {1} under naive evaluation (the §4.1 example).
  Database db;
  Relation r({"x"}), s({"x"});
  r.Add({Value::Int(1)});
  s.Add({Value::Null(0)});
  db.Put("R", r);
  db.Put("S", s);
  auto res = EvalSet(Diff(Scan("R"), Scan("S")), db);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->SortedTuples(), std::vector<Tuple>{Tuple{Value::Int(1)}});
}

TEST(EvalSetTest, NaiveEvaluationOfPathQuery) {
  // Graph {(1,⊥1), (⊥1,2)}: the conjunctive path query finds the path by
  // treating ⊥1 as a fresh constant (§4.1 opening example).
  Database db;
  Relation e({"src", "dst"});
  e.Add({Value::Int(1), Value::Null(1)});
  e.Add({Value::Null(1), Value::Int(2)});
  db.Put("E", e);
  AlgPtr q = Project(
      Select(Product(Rename(Scan("E"), {"a", "b"}),
                     Rename(Scan("E"), {"c", "d"})),
             CAnd(CAnd(CEqc("a", Value::Int(1)), CEq("b", "c")),
                  CEqc("d", Value::Int(2)))),
      {"a"});
  auto res = EvalSet(q, db);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->TotalSize(), 1u);
}

TEST(EvalSetTest, HashJoinMatchesNestedLoop) {
  // Join with equality conjunct + residual; compare against the
  // unoptimised product-then-select by using a non-equi residual form.
  Database db = FigureOne(true);
  AlgPtr joined = Join(Rename(Scan("Payments"), {"p_cid", "p_oid"}),
                       Scan("Customers"), CEq("p_cid", "cid"));
  AlgPtr manual = Select(Product(Rename(Scan("Payments"), {"p_cid", "p_oid"}),
                                 Scan("Customers")),
                         COr(CAnd(CEq("p_cid", "cid"), CTrue()), CFalse()));
  // The second form hides the equality under ∨/∧ so the fast path cannot
  // extract it — both must agree.
  auto a = EvalSet(joined, db);
  auto b = EvalSet(manual, db);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->SameRows(*b));
}

TEST(EvalSetTest, DivisionFindsUniversalMatches) {
  // Employees working on all projects.
  Database db;
  Relation works({"emp", "proj"});
  works.Add({Value::String("ann"), Value::Int(1)});
  works.Add({Value::String("ann"), Value::Int(2)});
  works.Add({Value::String("bob"), Value::Int(1)});
  Relation projects({"proj"});
  projects.Add({Value::Int(1)});
  projects.Add({Value::Int(2)});
  db.Put("Works", works);
  db.Put("Projects", projects);
  auto res = EvalSet(Division(Scan("Works"), Scan("Projects")), db);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->SortedTuples(), std::vector<Tuple>{Str("ann")});
}

TEST(EvalSetTest, AntijoinUnifyDropsUnifiableTuples) {
  Database db;
  Relation l({"a", "b"});
  l.Add({Value::Int(1), Value::Int(2)});   // unifies with (1, ⊥7)
  l.Add({Value::Int(3), Value::Int(4)});   // unifies with nothing
  l.Add({Value::Null(1), Value::Null(1)}); // unifies with (5,5)? needs eq
  Relation r({"c", "d"});
  r.Add({Value::Int(1), Value::Null(7)});
  r.Add({Value::Int(5), Value::Int(6)});
  db.Put("L", l);
  db.Put("Rr", r);
  auto res = EvalSet(AntijoinUnify(Scan("L"), Scan("Rr")), db);
  ASSERT_TRUE(res.ok());
  // (3,4): no partner. (⊥1,⊥1): (1,⊥7) unifies (⊥1↦1, ⊥7↦1) → dropped.
  EXPECT_EQ(res->SortedTuples(),
            (std::vector<Tuple>{Tuple{Value::Int(3), Value::Int(4)}}));
}

TEST(EvalSetTest, DomProducesActiveDomainPowers) {
  Database db;
  Relation r({"x"});
  r.Add({Value::Int(1)});
  r.Add({Value::Null(3)});
  db.Put("R", r);
  auto res = EvalSet(DomK(2, {Value::Int(9)}), db);
  ASSERT_TRUE(res.ok());
  // adom = {1, ⊥3} plus extra constant 9 → 3² tuples.
  EXPECT_EQ(res->TotalSize(), 9u);
}

TEST(EvalSetTest, BudgetExhaustionSurfacesAsError) {
  Database db;
  Relation r({"x"});
  for (int i = 0; i < 50; ++i) r.Add({Value::Int(i)});
  db.Put("R", r);
  EvalOptions opts;
  opts.max_tuples = 1000;
  auto res = EvalSet(DomK(3), db, opts);  // 50³ = 125000 > 1000
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
}

// Dom^4 over 65536 values is 2^64 tuples. The size pre-check must not
// wrap to 0 and pass even the largest max_tuples; enumerating would run
// until the deadline or memory gave out.
TEST(EvalSetTest, DomSizePastTwoToThe64IsResourceExhausted) {
  Database db;
  Relation r({"x"});
  for (int i = 0; i < 65536; ++i) r.Add({Value::Int(i)});
  db.Put("R", std::move(r));
  EvalOptions opts;
  opts.max_tuples = UINT64_MAX;
  auto res = EvalSet(DomK(4), db, opts, ExecContext::WithDeadlineMs(300));
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted)
      << res.status().ToString();
  ASSERT_NE(res.status().detail(), nullptr);
  EXPECT_EQ(res.status().detail()->budget_used, UINT64_MAX);
  EXPECT_EQ(res.status().detail()->budget_limit, UINT64_MAX);
}

// --- Bag semantics -----------------------------------------------------------

class BagTest : public ::testing::Test {
 protected:
  Database db_;
  void SetUp() override {
    Relation r({"x"});
    r.Add({Value::Int(1)}, 3);
    r.Add({Value::Int(2)}, 1);
    Relation s({"x"});
    s.Add({Value::Int(1)}, 1);
    s.Add({Value::Int(2)}, 5);
    db_.Put("R", r);
    db_.Put("S", s);
  }
};

TEST_F(BagTest, UnionAddsMultiplicities) {
  auto res = EvalBag(Union(Scan("R"), Scan("S")), db_);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->Count(Tuple{Value::Int(1)}), 4u);
  EXPECT_EQ(res->Count(Tuple{Value::Int(2)}), 6u);
}

TEST_F(BagTest, DifferenceIsMonus) {
  auto res = EvalBag(Diff(Scan("R"), Scan("S")), db_);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->Count(Tuple{Value::Int(1)}), 2u);  // 3 − 1
  EXPECT_EQ(res->Count(Tuple{Value::Int(2)}), 0u);  // 1 − 5 → 0
}

TEST_F(BagTest, IntersectionIsMin) {
  auto res = EvalBag(Intersect(Scan("R"), Scan("S")), db_);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->Count(Tuple{Value::Int(1)}), 1u);
  EXPECT_EQ(res->Count(Tuple{Value::Int(2)}), 1u);
}

TEST_F(BagTest, ProductMultiplies) {
  auto res = EvalBag(Product(Scan("R"), Rename(Scan("S"), {"y"})), db_);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->Count(Tuple{Value::Int(1), Value::Int(2)}), 15u);  // 3·5
}

TEST_F(BagTest, ProjectionAddsUp) {
  Relation two({"a", "b"});
  two.Add({Value::Int(1), Value::Int(10)}, 2);
  two.Add({Value::Int(1), Value::Int(20)}, 3);
  db_.Put("T2", two);
  auto res = EvalBag(Project(Scan("T2"), {"a"}), db_);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->Count(Tuple{Value::Int(1)}), 5u);
}

TEST_F(BagTest, DistinctCollapses) {
  auto res = EvalBag(Distinct(Scan("R")), db_);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->IsSet());
}

TEST_F(BagTest, SetEvalIsBagEvalDeduplicatedForMonotoneOps) {
  // Union and intersection supports agree; difference deliberately does
  // NOT (bag monus keeps 1×(3−1) where set difference drops 1 — checked
  // below).
  for (const AlgPtr& q :
       {Union(Scan("R"), Scan("S")), Intersect(Scan("R"), Scan("S"))}) {
    auto set = EvalSet(q, db_);
    auto bag = EvalBag(q, db_);
    ASSERT_TRUE(set.ok() && bag.ok());
    EXPECT_TRUE(set->SameRows(bag->ToSet())) << q->ToString();
  }
  auto set_diff = EvalSet(Diff(Scan("R"), Scan("S")), db_);
  auto bag_diff = EvalBag(Diff(Scan("R"), Scan("S")), db_);
  ASSERT_TRUE(set_diff.ok() && bag_diff.ok());
  EXPECT_TRUE(set_diff->Empty());
  EXPECT_EQ(bag_diff->Count(Tuple{Value::Int(1)}), 2u);
}

// --- SQL 3VL evaluator -------------------------------------------------------

TEST(EvalSqlTest, WhereKeepsOnlyTrue) {
  Database db;
  Relation r({"x"});
  r.Add({Value::Int(1)});
  r.Add({Value::Null(0)});
  db.Put("R", r);
  // WHERE x = 1: the null row evaluates to u and is dropped.
  auto res = EvalSql(Select(Scan("R"), CEqc("x", Value::Int(1))), db);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->TotalSize(), 1u);
  // WHERE x <> 1 also drops it: SQL can produce *neither* row.
  auto res2 = EvalSql(Select(Scan("R"), CNeqc("x", Value::Int(1))), db);
  ASSERT_TRUE(res2.ok());
  EXPECT_TRUE(res2->Empty());
}

TEST(EvalSqlTest, NotInWithNullOnRightEliminatesEverything) {
  Database db;
  Relation r({"x"}), s({"y"});
  r.Add({Value::Int(1)});
  r.Add({Value::Int(2)});
  s.Add({Value::Int(9)});
  s.Add({Value::Null(0)});
  db.Put("R", r);
  db.Put("S", s);
  auto res = EvalSql(NotInPredicate(Scan("R"), Scan("S"), {"x"}, {"y"},
                                    CTrue()),
                     db);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->Empty());  // the NULL makes every comparison unknown
  // Without the null, classical answers return.
  Relation s2({"y"});
  s2.Add({Value::Int(1)});
  db.Put("S", s2);
  auto res2 = EvalSql(NotInPredicate(Scan("R"), Scan("S"), {"x"}, {"y"},
                                     CTrue()),
                      db);
  ASSERT_TRUE(res2.ok());
  EXPECT_EQ(res2->SortedTuples(), std::vector<Tuple>{Tuple{Value::Int(2)}});
}

TEST(EvalSqlTest, NullLeftOfNotIn) {
  // x NOT IN S with x NULL: false (u) unless S is empty.
  Database db;
  Relation r({"x"}), s({"y"}), empty({"y"});
  r.Add({Value::Null(0)});
  s.Add({Value::Int(1)});
  db.Put("R", r);
  db.Put("S", s);
  db.Put("E", empty);
  auto res = EvalSql(NotInPredicate(Scan("R"), Scan("S"), {"x"}, {"y"},
                                    CTrue()),
                     db);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->Empty());
  auto res2 = EvalSql(NotInPredicate(Scan("R"), Scan("E"), {"x"}, {"y"},
                                     CTrue()),
                      db);
  ASSERT_TRUE(res2.ok());
  EXPECT_EQ(res2->TotalSize(), 1u);  // NOT IN over empty set is true
}

TEST(EvalSqlTest, InRequiresDefiniteMatch) {
  Database db;
  Relation r({"x"}), s({"y"});
  r.Add({Value::Int(1)});
  r.Add({Value::Null(0)});
  s.Add({Value::Int(1)});
  s.Add({Value::Null(2)});
  db.Put("R", r);
  db.Put("S", s);
  auto res = EvalSql(InPredicate(Scan("R"), Scan("S"), {"x"}, {"y"},
                                 CTrue()),
                     db);
  ASSERT_TRUE(res.ok());
  // Only the constant 1 matches definitely; ⊥0 IN {1, ⊥2} is unknown.
  EXPECT_EQ(res->SortedTuples(), std::vector<Tuple>{Tuple{Value::Int(1)}});
}

TEST(EvalSqlTest, DoubleNegationParadox) {
  // §5.1: R−(S−T) with R = S = {1}, T = {⊥}: SQL returns {1}, yet 1 is
  // almost certainly false (µ = 0).
  Database db;
  Relation r({"x"}), s({"x"}), t({"x"});
  r.Add({Value::Int(1)});
  s.Add({Value::Int(1)});
  t.Add({Value::Null(0)});
  db.Put("R", r);
  db.Put("S", s);
  db.Put("T", t);
  // Inner output renamed to avoid the same-name restriction.
  AlgPtr q = NotInPredicate(
      Scan("R"),
      Rename(NotInPredicate(Scan("S"), Rename(Scan("T"), {"z"}), {"x"},
                            {"z"}, CTrue()),
             {"y"}),
      {"x"}, {"y"}, CTrue());
  auto res = EvalSql(q, db);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->SortedTuples(), std::vector<Tuple>{Tuple{Value::Int(1)}});
}

TEST(EvalSqlTest, SqlTupleEqTruthValues) {
  Tuple a{Value::Int(1), Value::Int(2)};
  Tuple b{Value::Int(1), Value::Int(2)};
  Tuple c{Value::Int(1), Value::Int(3)};
  Tuple d{Value::Int(1), Value::Null(0)};
  Tuple e{Value::Int(9), Value::Null(0)};
  EXPECT_EQ(SqlTupleEq(a, b), TV3::kT);
  EXPECT_EQ(SqlTupleEq(a, c), TV3::kF);
  EXPECT_EQ(SqlTupleEq(a, d), TV3::kU);  // null blocks certainty
  EXPECT_EQ(SqlTupleEq(a, e), TV3::kF);  // constant conflict dominates
}

TEST(EvalSqlTest, DivisionUnsupported) {
  Database db;
  db.Put("R", Relation({"a", "b"}));
  db.Put("S", Relation({"b"}));
  auto res = EvalSql(Division(Scan("R"), Scan("S")), db);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kUnsupported);
}

// --- Cross-evaluator sanity ---------------------------------------------------

TEST(EvalAgreementTest, SqlAgreesWithSetOnCompleteDatabases) {
  std::mt19937_64 rng(7);
  for (int round = 0; round < 20; ++round) {
    Database db = testing_util::RandomDatabase(rng, 4, 4, /*n_nulls=*/0);
    for (const AlgPtr& q : testing_util::QueryZoo()) {
      auto set = EvalSet(q, db);
      auto sql = EvalSql(q, db);
      ASSERT_TRUE(set.ok() && sql.ok()) << q->ToString();
      EXPECT_TRUE(set->SameRows(*sql)) << q->ToString();
    }
  }
}

TEST(EvalAgreementTest, BagSupportMatchesSetOnPositiveQueries) {
  // For the positive (monotone, difference-free) fragment, the support of
  // the bag answer equals the set answer. (With difference this fails:
  // bag monus can keep a tuple whose set difference drops it.)
  std::mt19937_64 rng(11);
  for (int round = 0; round < 20; ++round) {
    Database db = testing_util::RandomDatabase(rng, 4, 4, /*n_nulls=*/2);
    for (const AlgPtr& q : testing_util::QueryZoo(/*include_negative=*/false)) {
      auto set = EvalSet(q, db);
      auto bag = EvalBag(q, db);
      ASSERT_TRUE(set.ok() && bag.ok()) << q->ToString();
      EXPECT_TRUE(set->SameRows(bag->ToSet())) << q->ToString();
    }
  }
}

}  // namespace
}  // namespace incdb
