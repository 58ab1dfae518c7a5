// Tests for src/sql: lexer, parser, algebra translation, and the
// end-to-end reproduction of the paper's §1 SQL queries (driven through
// the api/session.h facade; the free-function entry points stay covered
// by the translation tests).

#include <gtest/gtest.h>

#include "api/session.h"
#include "sql/translate.h"
#include "tests/testing_util.h"

namespace incdb {
namespace {

using testing_util::FigureOne;

// --- Lexer -------------------------------------------------------------------

TEST(LexerTest, KeywordsIdentifiersLiterals) {
  auto toks = Tokenize("select A from T where a <> 3.5 and b = 'txt'");
  ASSERT_TRUE(toks.ok());
  // 0:SELECT 1:A 2:FROM 3:T 4:WHERE 5:a 6:<> 7:3.5 8:AND 9:b 10:= 11:'txt'
  EXPECT_EQ((*toks)[0].text, "SELECT");  // case-folded keyword
  EXPECT_EQ((*toks)[1].kind, TokKind::kIdent);
  EXPECT_EQ((*toks)[1].text, "A");  // identifier case preserved
  EXPECT_EQ((*toks)[6].text, "<>");
  EXPECT_EQ((*toks)[7].kind, TokKind::kNumber);
  EXPECT_EQ((*toks)[7].text, "3.5");
  EXPECT_EQ((*toks)[11].kind, TokKind::kString);
  EXPECT_EQ((*toks)[11].text, "txt");
  EXPECT_EQ(toks->back().kind, TokKind::kEof);
}

TEST(LexerTest, QualifiedNumbersVsDots) {
  auto toks = Tokenize("T.a = 1.5");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].text, "T");
  EXPECT_EQ((*toks)[1].text, ".");
  EXPECT_EQ((*toks)[2].text, "a");
  EXPECT_EQ((*toks)[4].text, "1.5");
}

TEST(LexerTest, ParameterPlaceholderSymbol) {
  auto toks = Tokenize("price > ? AND cid = ?");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[2].kind, TokKind::kSymbol);
  EXPECT_EQ((*toks)[2].text, "?");
  EXPECT_EQ((*toks)[6].text, "?");
}

TEST(LexerTest, UnterminatedString) {
  EXPECT_FALSE(Tokenize("SELECT 'oops").ok());
}

TEST(LexerTest, UnexpectedCharacter) {
  EXPECT_FALSE(Tokenize("SELECT a; DROP").ok());
}

TEST(LexerTest, SignedNumericLiterals) {
  auto toks = Tokenize("a > -5 AND b <= -2.5");
  ASSERT_TRUE(toks.ok()) << toks.status().ToString();
  EXPECT_EQ((*toks)[2].kind, TokKind::kNumber);
  EXPECT_EQ((*toks)[2].text, "-5");
  EXPECT_EQ((*toks)[2].pos, 4u);
  EXPECT_EQ((*toks)[6].kind, TokKind::kNumber);
  EXPECT_EQ((*toks)[6].text, "-2.5");
  // A '-' that does not start a number is still rejected.
  EXPECT_FALSE(Tokenize("a > - 5").ok());
}

// --- Parser ------------------------------------------------------------------

TEST(ParserTest, BasicSelect) {
  auto q = ParseSql("SELECT oid FROM Orders WHERE price = 30");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_FALSE((*q)->distinct);
  ASSERT_EQ((*q)->select.size(), 1u);
  EXPECT_EQ((*q)->select[0].name, "oid");
  ASSERT_EQ((*q)->from.size(), 1u);
  EXPECT_EQ((*q)->from[0].table, "Orders");
  EXPECT_EQ((*q)->from[0].alias, "Orders");
  ASSERT_TRUE((*q)->where != nullptr);
  EXPECT_EQ((*q)->where->kind, SqlExprKind::kCmpColLit);
}

TEST(ParserTest, AliasesAndStar) {
  auto q = ParseSql("SELECT * FROM Orders O, Payments AS P");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE((*q)->select_star);
  EXPECT_EQ((*q)->from[0].alias, "O");
  EXPECT_EQ((*q)->from[1].alias, "P");
}

TEST(ParserTest, NotInSubquery) {
  auto q = ParseSql(
      "SELECT oid FROM Orders WHERE oid NOT IN "
      "( SELECT oid FROM Payments )");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE((*q)->where != nullptr);
  EXPECT_EQ((*q)->where->kind, SqlExprKind::kInSubquery);
  EXPECT_TRUE((*q)->where->negated);
  EXPECT_EQ((*q)->where->subquery->from[0].table, "Payments");
}

TEST(ParserTest, NotExistsFoldsNegation) {
  auto q = ParseSql(
      "SELECT C.cid FROM Customers C WHERE NOT EXISTS "
      "( SELECT * FROM Orders O, Payments P "
      "  WHERE C.cid = P.cid AND P.oid = O.oid )");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ((*q)->where->kind, SqlExprKind::kExists);
  EXPECT_TRUE((*q)->where->negated);
}

TEST(ParserTest, IsNullAndBooleans) {
  auto q = ParseSql(
      "SELECT a FROM T WHERE a IS NOT NULL AND (b = 1 OR NOT c = 2)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->where->kind, SqlExprKind::kAnd);
}

TEST(ParserTest, ParametersNumberedInTextOrder) {
  auto q = ParseSql(
      "SELECT oid FROM Orders WHERE price > ? AND oid NOT IN "
      "( SELECT oid FROM Payments WHERE cid = ? )");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ((*q)->param_count, 2u);
  // First conjunct: price > ?0.
  ASSERT_EQ((*q)->where->kind, SqlExprKind::kAnd);
  const SqlExprPtr& cmp = (*q)->where->l;
  ASSERT_EQ(cmp->kind, SqlExprKind::kCmpColLit);
  ASSERT_TRUE(cmp->literal.is_param());
  EXPECT_EQ(cmp->literal.param_index(), 0u);
  // Subquery WHERE: cid = ?1.
  const SqlExprPtr& in = (*q)->where->r;
  ASSERT_EQ(in->kind, SqlExprKind::kInSubquery);
  ASSERT_TRUE(in->subquery->where->literal.is_param());
  EXPECT_EQ(in->subquery->where->literal.param_index(), 1u);
}

TEST(ParserTest, ColumnsAndTablesCarryOffsets) {
  auto q = ParseSql("SELECT oid FROM Orders WHERE price = 30");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->select[0].pos, 7u);
  EXPECT_EQ((*q)->from[0].pos, 16u);
}

TEST(ParserTest, NegativeLiteralsParse) {
  auto q = ParseSql("SELECT a FROM R WHERE a > -5 OR a < -2.5");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ((*q)->where->kind, SqlExprKind::kOr);
  EXPECT_EQ((*q)->where->l->literal, Value::Int(-5));
  EXPECT_EQ((*q)->where->r->literal, Value::Double(-2.5));
}

// Literals beyond int64 / double range are a positioned kInvalidArgument,
// not an uncaught std::out_of_range.
TEST(ParserTest, OutOfRangeLiteralsRejectedWithOffset) {
  Session sess(FigureOne(false));
  auto big = sess.Prepare(
      "SELECT oid FROM Orders WHERE price > 99999999999999999999");
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(big.status().message().find("out of range at offset 37"),
            std::string::npos)
      << big.status().ToString();
  // AnnotateSqlError puts the caret under the literal.
  EXPECT_NE(big.status().message().find(std::string(39, ' ') + "^"),
            std::string::npos)
      << big.status().ToString();

  const std::string huge = "1" + std::string(400, '0') + ".5";
  auto dbl = ParseSql("SELECT a FROM R WHERE a < -" + huge);
  ASSERT_FALSE(dbl.ok());
  EXPECT_EQ(dbl.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dbl.status().message().find("at offset 26"), std::string::npos)
      << dbl.status().ToString();
}

TEST(ParserTest, TrailingInputRejected) {
  EXPECT_FALSE(ParseSql("SELECT a FROM T extra garbage ( ").ok());
  EXPECT_FALSE(ParseSql("SELECT FROM T").ok());
  EXPECT_FALSE(ParseSql("SELECT a WHERE b = 1").ok());
}

// --- Translation -------------------------------------------------------------

TEST(TranslateSqlTest, SimpleSelectEvaluates) {
  Database db = FigureOne(false);
  auto alg = ParseSqlToAlgebra(
      "SELECT oid FROM Orders WHERE price = 30", db);
  ASSERT_TRUE(alg.ok()) << alg.status().ToString();
  auto res = EvalSql(*alg, db);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->SortedTuples(),
            std::vector<Tuple>{Tuple{Value::String("o1")}});
}

TEST(TranslateSqlTest, UnknownTableOrColumn) {
  Database db = FigureOne(false);
  auto no_table = ParseSqlToAlgebra("SELECT a FROM Nope", db);
  ASSERT_FALSE(no_table.ok());
  EXPECT_NE(no_table.status().message().find("at offset 14"),
            std::string::npos)
      << no_table.status().ToString();
  auto no_col = ParseSqlToAlgebra("SELECT nope FROM Orders", db);
  ASSERT_FALSE(no_col.ok());
  EXPECT_NE(no_col.status().message().find("at offset 7"), std::string::npos)
      << no_col.status().ToString();
  auto no_where = ParseSqlToAlgebra(
      "SELECT oid FROM Orders WHERE nope = 1", db);
  ASSERT_FALSE(no_where.ok());
  EXPECT_NE(no_where.status().message().find("at offset 29"),
            std::string::npos)
      << no_where.status().ToString();
}

TEST(TranslateSqlTest, NegativeLiteralsMatchTheAlgebra) {
  Database db;
  Relation r({"a"});
  for (int64_t v : {-10, -5, -3, 0, 4}) r.Add({Value::Int(v)});
  for (double v : {-7.5, -2.5, -1.25, 3.5}) r.Add({Value::Double(v)});
  db.Put("R", std::move(r));
  Session sess(std::move(db));
  struct Case {
    const char* sql;
    AlgPtr alg;
  };
  const Case cases[] = {
      {"SELECT a FROM R WHERE a > -5",
       Project(Select(Scan("R"), CGtc("a", Value::Int(-5))), {"a"})},
      {"SELECT a FROM R WHERE a = -5",
       Project(Select(Scan("R"), CEqc("a", Value::Int(-5))), {"a"})},
      {"SELECT a FROM R WHERE a <= -2.5",
       Project(Select(Scan("R"), CLec("a", Value::Double(-2.5))), {"a"})},
      {"SELECT a FROM R WHERE a <> -2.5",
       Project(Select(Scan("R"), CNeqc("a", Value::Double(-2.5))), {"a"})},
  };
  for (const Case& c : cases) {
    auto sql = sess.Execute(c.sql);
    ASSERT_TRUE(sql.ok()) << c.sql << ": " << sql.status().ToString();
    auto pq = sess.Prepare(c.alg);
    ASSERT_TRUE(pq.ok()) << pq.status().ToString();
    auto alg = pq->Execute();
    ASSERT_TRUE(alg.ok()) << alg.status().ToString();
    EXPECT_FALSE(alg->Empty()) << c.sql;
    EXPECT_TRUE(sql->SameRows(*alg))
        << c.sql << "\nsql:\n" << sql->ToString() << "\nalgebra:\n"
        << alg->ToString();
  }
}

// Two integers compare exactly: 2^53 + 1 must not collapse onto 2^53, as
// it does when both are compared as doubles.
TEST(TranslateSqlTest, IntegerOrderIsExactPastTwoToThe53) {
  Database db;
  Relation r({"x"});
  r.Add({Value::Int(9007199254740993)});
  db.Put("r", std::move(r));
  Session sess(std::move(db));
  auto gt = sess.Execute("SELECT x FROM r WHERE x > 9007199254740992");
  ASSERT_TRUE(gt.ok()) << gt.status().ToString();
  EXPECT_EQ(gt->SortedTuples(),
            std::vector<Tuple>{Tuple{Value::Int(9007199254740993)}});
  auto le = sess.Execute("SELECT x FROM r WHERE x <= 9007199254740992");
  ASSERT_TRUE(le.ok()) << le.status().ToString();
  EXPECT_TRUE(le->Empty()) << le->ToString();
}

// A bag join whose pair multiplicity passes 2^64 − 1 (2^32 · 2^32) fails
// with a structured status instead of wrapping to 0 and vanishing.
TEST(TranslateSqlTest, BagJoinMultiplicityOverflowIsResourceExhausted) {
  // r and u hold one row 2^32 times each, so every join path that pairs
  // them wraps a 64-bit count: the hash join, one with a residual, the
  // nested-loop join and a hash join chained over another (t joins r to
  // u once).
  Database db;
  Relation r({"a"}), t({"b"}), u({"c"});
  r.Add({Value::Int(1)}, uint64_t{1} << 32);
  t.Add({Value::Int(1)});
  u.Add({Value::Int(1)}, uint64_t{1} << 32);
  db.Put("r", std::move(r));
  db.Put("t", std::move(t));
  db.Put("u", std::move(u));
  Session sess(std::move(db));
  for (const char* sql :
       {"SELECT a, c FROM r, u WHERE a = c",
        "SELECT a, c FROM r, u WHERE a = c AND a <= c",
        "SELECT a, c FROM r, u WHERE a <= c",
        "SELECT a, b, c FROM r, t, u WHERE a = b AND b = c"}) {
    auto res = sess.Execute(sql, {}, EvalMode::kBagNaive);
    ASSERT_FALSE(res.ok()) << sql << ": " << res->ToString();
    EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted)
        << sql << ": " << res.status().ToString();
    ASSERT_NE(res.status().detail(), nullptr) << sql;
    EXPECT_EQ(res.status().detail()->site, "join.emit") << sql;
  }
}

TEST(TranslateSqlTest, AmbiguousColumnRejected) {
  Database db = FigureOne(false);
  // cid exists in both Payments and Customers.
  auto res = ParseSqlToAlgebra(
      "SELECT cid FROM Payments, Customers", db);
  EXPECT_FALSE(res.ok());
}

TEST(TranslateSqlTest, QualifiedColumnsAndJoin) {
  Session sess(FigureOne(false));
  auto res = sess.Execute(
      "SELECT C.name FROM Payments P, Customers C WHERE P.cid = C.cid");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->SortedTuples().size(), 2u);
}

// --- The paper's §1 queries, end to end ----------------------------------------

const char* kUnpaidOrdersSql =
    "SELECT oid FROM Orders WHERE oid NOT IN "
    "( SELECT oid FROM Payments )";

const char* kCustomersNoPaidSql =
    "SELECT C.cid FROM Customers C WHERE NOT EXISTS "
    "( SELECT * FROM Orders O, Payments P "
    "  WHERE C.cid = P.cid AND P.oid = O.oid )";

const char* kTautologySql =
    "SELECT cid FROM Payments WHERE oid = 'o2' OR oid <> 'o2'";

TEST(PaperSqlTest, CompleteDatabase) {
  Session sess(FigureOne(false));
  auto r1 = sess.Execute(kUnpaidOrdersSql);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->SortedTuples(),
            std::vector<Tuple>{Tuple{Value::String("o3")}});

  auto r2 = sess.Execute(kCustomersNoPaidSql);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_TRUE(r2->Empty());
}

TEST(PaperSqlTest, NullDatabaseFalseNegativesAndPositives) {
  Session sess(FigureOne(true));
  // Unpaid orders: empty (false negative — certain answer is also empty,
  // but SQL loses o3 which it itself returned before).
  auto r1 = sess.Execute(kUnpaidOrdersSql);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->Empty());

  // Customers with no paid order: SQL invents c2 — a false positive
  // w.r.t. certain answers.
  auto nopaid = sess.Prepare(kCustomersNoPaidSql);
  ASSERT_TRUE(nopaid.ok());
  auto r2 = nopaid->Execute();
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->SortedTuples(),
            std::vector<Tuple>{Tuple{Value::String("c2")}});
  auto cert = sess.CertainWithNulls(nopaid->algebra());
  ASSERT_TRUE(cert.ok());
  EXPECT_TRUE(cert->Empty()) << "c2 must not be certain";

  // Tautology: SQL returns only c1; certain answers are {c1, c2}.
  auto taut = sess.Prepare(kTautologySql);
  ASSERT_TRUE(taut.ok());
  auto r3 = taut->Execute();
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->SortedTuples(),
            std::vector<Tuple>{Tuple{Value::String("c1")}});
  auto cert3 = sess.CertainWithNulls(taut->algebra());
  ASSERT_TRUE(cert3.ok());
  EXPECT_EQ(cert3->SortedTuples().size(), 2u);
}

TEST(PaperSqlTest, TranslatedQueriesFeedApproximations) {
  // The same prepared SQL runs through the Fig. 2(b) scheme: Q+ never
  // returns the false positive.
  Session sess(FigureOne(true));
  auto nopaid = sess.Prepare(kCustomersNoPaidSql);
  ASSERT_TRUE(nopaid.ok());
  auto plus = sess.CertainPlus(nopaid->algebra());
  ASSERT_TRUE(plus.ok()) << plus.status().ToString();
  EXPECT_TRUE(plus->Empty());
  auto maybe = sess.CertainMaybe(nopaid->algebra());
  ASSERT_TRUE(maybe.ok());
  EXPECT_TRUE(maybe->Contains(Tuple{Value::String("c2")}));
}

TEST(PaperSqlTest, CorrelationDepthLimit) {
  // Depth-2 correlation (innermost references the outermost alias) is
  // rejected with Unsupported, not silently mistranslated.
  Session sess(FigureOne(false));
  auto res = sess.Prepare(
      "SELECT C.cid FROM Customers C WHERE NOT EXISTS "
      "( SELECT * FROM Orders O WHERE EXISTS "
      "  ( SELECT * FROM Payments P WHERE P.cid = C.cid ) )");
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kUnsupported);
}

TEST(PaperSqlTest, DistinctIsAccepted) {
  Session sess(FigureOne(false));
  auto res = sess.Execute("SELECT DISTINCT cid FROM Payments");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->SortedTuples().size(), 2u);
}

}  // namespace
}  // namespace incdb
