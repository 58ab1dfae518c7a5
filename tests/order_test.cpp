// Tests for the order-comparison extension (paper §6, "Types of
// attributes"): <, ≤, >, ≥ in selection conditions, treated like
// disequalities by the θ* guards, supported by the SQL frontend, and
// rejected by the exact (genericity-based) certainty machinery.

#include <gtest/gtest.h>

#include "algebra/builder.h"
#include "core/valuation.h"
#include "approx/approx.h"
#include "certain/certain.h"
#include "eval/eval.h"
#include "prob/prob.h"
#include "sql/translate.h"
#include "tests/testing_util.h"

namespace incdb {
namespace {

TEST(OrderCondTest, CompareConstSemantics) {
  EXPECT_LT(CompareConst(Value::Int(1), Value::Int(2)), 0);
  EXPECT_EQ(CompareConst(Value::Int(2), Value::Int(2)), 0);
  EXPECT_GT(CompareConst(Value::Int(3), Value::Int(2)), 0);
  // Numeric across kinds: 1 < 1.5 < 2.
  EXPECT_LT(CompareConst(Value::Int(1), Value::Double(1.5)), 0);
  EXPECT_GT(CompareConst(Value::Int(2), Value::Double(1.5)), 0);
  EXPECT_EQ(CompareConst(Value::Int(2), Value::Double(2.0)), 0);
  // Strings lexicographic.
  EXPECT_LT(CompareConst(Value::String("abc"), Value::String("abd")), 0);
}

TEST(OrderCondTest, EvaluationModes) {
  std::vector<std::string> attrs{"a", "b"};
  Tuple consts{Value::Int(1), Value::Int(5)};
  Tuple with_null{Value::Int(1), Value::Null(0)};
  auto eval = [&](const CondPtr& c, const Tuple& t, CondMode m) {
    auto tv = testing_util::ProgramTruth(c, attrs, t, m);
    EXPECT_TRUE(tv.ok());
    return tv.ok() ? *tv : TV3::kU;
  };
  // Constants: classical.
  EXPECT_EQ(eval(CLt("a", "b"), consts, CondMode::kSql), TV3::kT);
  EXPECT_EQ(eval(CLt("b", "a"), consts, CondMode::kSql), TV3::kF);
  EXPECT_EQ(eval(CLec("a", Value::Int(1)), consts, CondMode::kSql), TV3::kT);
  EXPECT_EQ(eval(CGtc("a", Value::Int(1)), consts, CondMode::kSql), TV3::kF);
  EXPECT_EQ(eval(CGec("a", Value::Int(1)), consts, CondMode::kSql), TV3::kT);
  // Nulls: u under SQL/unif, conservative f under naive.
  EXPECT_EQ(eval(CLt("a", "b"), with_null, CondMode::kSql), TV3::kU);
  EXPECT_EQ(eval(CLt("a", "b"), with_null, CondMode::kUnif), TV3::kU);
  EXPECT_EQ(eval(CLt("a", "b"), with_null, CondMode::kNaive), TV3::kF);
}

TEST(OrderCondTest, NegationFlipsAndSwaps) {
  EXPECT_EQ(Negate(CLt("a", "b"))->ToString(), "b ≤ a");
  EXPECT_EQ(Negate(CLe("a", "b"))->ToString(), "b < a");
  EXPECT_EQ(Negate(CLtc("a", Value::Int(3)))->ToString(), "a ≥ 3");
  EXPECT_EQ(Negate(CGec("a", Value::Int(3)))->ToString(), "a < 3");
  // Involution.
  CondPtr c = CAnd(CLt("a", "b"), CGtc("a", Value::Int(0)));
  EXPECT_EQ(Negate(Negate(c))->ToString(), c->ToString());
}

TEST(OrderCondTest, StarTranslationGuards) {
  CondPtr star = StarTranslate(CLtc("a", Value::Int(3)));
  EXPECT_EQ(star->ToString(), "(a < 3 ∧ const(a))");
  CondPtr star2 = StarTranslate(CLe("a", "b"));
  EXPECT_EQ(star2->ToString(), "(a ≤ b ∧ (const(a) ∧ const(b)))");
}

class OrderApproxTest : public ::testing::Test {
 protected:
  // R(x) = {3, 7, ⊥1}.
  void SetUp() override {
    Relation r({"x"});
    r.Add({Value::Int(3)});
    r.Add({Value::Int(7)});
    r.Add({Value::Null(1)});
    db_.Put("R", r);
  }
  Database db_;
};

TEST_F(OrderApproxTest, PlusKeepsOnlyDefiniteMatches) {
  // σ_{x < 5}(R): certainly 3; possibly also ⊥1.
  AlgPtr q = Select(Scan("R"), CLtc("x", Value::Int(5)));
  auto plus = EvalPlus(q, db_);
  auto maybe = EvalMaybe(q, db_);
  ASSERT_TRUE(plus.ok() && maybe.ok());
  EXPECT_EQ(plus->SortedTuples(), std::vector<Tuple>{Tuple{Value::Int(3)}});
  EXPECT_EQ(maybe->SortedTuples(),
            (std::vector<Tuple>{Tuple{Value::Null(1)}, Tuple{Value::Int(3)}}));
  // SQL agrees with Q+ here (both drop the u row).
  auto sql = EvalSql(q, db_);
  ASSERT_TRUE(sql.ok());
  EXPECT_TRUE(sql->SameRows(*plus));
}

TEST_F(OrderApproxTest, RangeDifferenceIsSound) {
  // Q = σ_{x<5}(R) − σ_{x>2}(R) — the range split leaves nothing certain
  // below 5 and above 2 simultaneously... manual reasoning: any v(⊥1)
  // either <5&>2 (both sides), or not. Q+ must be ⊆ every world's answer.
  AlgPtr q = Diff(Select(Scan("R"), CLtc("x", Value::Int(5))),
                  Select(Scan("R"), CGtc("x", Value::Int(2))));
  auto plus = EvalPlus(q, db_);
  ASSERT_TRUE(plus.ok());
  for (int64_t v : {0, 3, 4, 5, 6, 100}) {
    Valuation val;
    val.Set(1, Value::Int(v));
    auto world = EvalSet(q, val.ApplySet(db_));
    ASSERT_TRUE(world.ok());
    for (const Tuple& t : plus->SortedTuples()) {
      EXPECT_TRUE(world->Contains(val.Apply(t)))
          << "v(⊥1)=" << v << " missing " << t.ToString();
    }
  }
}

TEST_F(OrderApproxTest, ExactMachineryRejectsOrderQueries) {
  AlgPtr q = Select(Scan("R"), CLtc("x", Value::Int(5)));
  EXPECT_EQ(CertWithNulls(q, db_).status().code(), StatusCode::kUnsupported);
  EXPECT_EQ(CertIntersection(q, db_).status().code(),
            StatusCode::kUnsupported);
  EXPECT_EQ(
      BagMultiplicityBounds(q, db_, Tuple{Value::Int(3)}).status().code(),
      StatusCode::kUnsupported);
  EXPECT_EQ(MuK(q, db_, Tuple{Value::Int(3)}, 5).status().code(),
            StatusCode::kUnsupported);
}

TEST_F(OrderApproxTest, FragmentClassification) {
  AlgPtr q = Select(Scan("R"), CLtc("x", Value::Int(5)));
  EXPECT_FALSE(IsPositive(q));  // behaves like a disequality
  EXPECT_TRUE(QueryHasOrderComparison(q));
  EXPECT_FALSE(QueryHasOrderComparison(
      Select(Scan("R"), CEqc("x", Value::Int(5)))));
}

// --- SQL frontend ---------------------------------------------------------------

class OrderSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Relation orders({"oid", "price"});
    orders.Add({Value::String("o1"), Value::Int(30)});
    orders.Add({Value::String("o2"), Value::Int(35)});
    orders.Add({Value::String("o3"), Value::Null(1)});
    db_.Put("Orders", std::move(orders));
  }
  Database db_;
};

TEST_F(OrderSqlTest, ComparisonOperatorsParseAndEvaluate) {
  auto alg = ParseSqlToAlgebra(
      "SELECT oid FROM Orders WHERE price >= 35", db_);
  ASSERT_TRUE(alg.ok()) << alg.status().ToString();
  auto res = EvalSql(*alg, db_);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->SortedTuples(),
            std::vector<Tuple>{Tuple{Value::String("o2")}});
  // o3's NULL price is u → dropped by SQL; Q? keeps it as possible.
  auto maybe = EvalMaybe(*alg, db_);
  ASSERT_TRUE(maybe.ok());
  EXPECT_TRUE(maybe->Contains(Tuple{Value::String("o3")}));
}

TEST_F(OrderSqlTest, BetweenStyleConjunction) {
  auto alg = ParseSqlToAlgebra(
      "SELECT oid FROM Orders WHERE price > 20 AND price < 32", db_);
  ASSERT_TRUE(alg.ok());
  auto res = EvalSql(*alg, db_);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->SortedTuples(),
            std::vector<Tuple>{Tuple{Value::String("o1")}});
}

TEST_F(OrderSqlTest, UnionChains) {
  auto alg = ParseSqlToAlgebra(
      "SELECT oid FROM Orders WHERE price < 32 UNION "
      "SELECT oid FROM Orders WHERE price > 32",
      db_);
  ASSERT_TRUE(alg.ok()) << alg.status().ToString();
  auto res = EvalSql(*alg, db_);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->SortedTuples().size(), 2u);  // o1 and o2; o3 unknown
  // Arity mismatch is rejected.
  EXPECT_FALSE(ParseSqlToAlgebra(
                   "SELECT oid FROM Orders UNION "
                   "SELECT oid, price FROM Orders",
                   db_)
                   .ok());
}

TEST_F(OrderSqlTest, NotPropagationOverOrder) {
  // NOT price < 32 ≡ price ≥ 32 in 3VL (Kleene negation swaps bounds).
  auto a = ParseSqlToAlgebra(
      "SELECT oid FROM Orders WHERE NOT price < 32", db_);
  auto b = ParseSqlToAlgebra(
      "SELECT oid FROM Orders WHERE price >= 32", db_);
  ASSERT_TRUE(a.ok() && b.ok());
  auto ra = EvalSql(*a, db_);
  auto rb = EvalSql(*b, db_);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_TRUE(ra->SameRows(*rb));
}

}  // namespace
}  // namespace incdb
