// Unit tests for src/algebra: selection conditions (negation propagation,
// θ* translation, three evaluation modes), AST validation, desugaring, the
// structural rewrite step (WithChildren / MapChildren) and fragment
// classifiers.

#include <gtest/gtest.h>

#include "algebra/builder.h"
#include "approx/approx.h"
#include "eval/eval.h"
#include "tests/testing_util.h"

namespace incdb {
namespace {

using testing_util::FigureOne;

// --- Condition construction and printing -----------------------------------

TEST(ConditionTest, ToStringRendering) {
  CondPtr c = CAnd(CEq("A", "B"), COr(CNeqc("A", Value::Int(3)),
                                      CIsNull("B")));
  EXPECT_EQ(c->ToString(), "(A = B ∧ (A ≠ 3 ∨ null(B)))");
}

TEST(ConditionTest, NegatePropagatesThroughGrammar) {
  // ¬(A = B ∧ null(A)) = A ≠ B ∨ const(A)  — the paper's §2 example.
  CondPtr c = CAnd(CEq("A", "B"), CIsNull("A"));
  EXPECT_EQ(Negate(c)->ToString(), "(A ≠ B ∨ const(A))");
}

TEST(ConditionTest, NegateIsInvolutive) {
  CondPtr c = COr(CAnd(CEqc("A", Value::Int(1)), CNeq("A", "B")),
                  CIsConst("B"));
  EXPECT_EQ(Negate(Negate(c))->ToString(), c->ToString());
}

TEST(ConditionTest, StarTranslationGuardsDisequalities) {
  // (A ≠ c)* = A ≠ c ∧ const(A);  (A ≠ B)* = A ≠ B ∧ const(A) ∧ const(B).
  CondPtr c1 = StarTranslate(CNeqc("A", Value::Int(5)));
  EXPECT_EQ(c1->ToString(), "(A ≠ 5 ∧ const(A))");
  CondPtr c2 = StarTranslate(CNeq("A", "B"));
  EXPECT_EQ(c2->ToString(), "(A ≠ B ∧ (const(A) ∧ const(B)))");
  // Equalities are untouched.
  CondPtr c3 = StarTranslate(CEq("A", "B"));
  EXPECT_EQ(c3->ToString(), "A = B");
}

TEST(ConditionTest, CondAttrsCollectsAll) {
  CondPtr c = CAnd(CEq("A", "B"), COr(CEqc("C", Value::Int(1)),
                                      CIsNull("D")));
  EXPECT_EQ(CondAttrs(c),
            (std::vector<std::string>{"A", "B", "C", "D"}));
}

// --- Condition evaluation modes --------------------------------------------

class CondModeTest : public ::testing::Test {
 protected:
  // Tuple layout: (const 1, const 2, ⊥1, ⊥1-again, ⊥2)
  std::vector<std::string> attrs_{"c1", "c2", "n1", "n1b", "n2"};
  Tuple tuple_{Value::Int(1), Value::Int(2), Value::Null(1), Value::Null(1),
               Value::Null(2)};

  TV3 Eval(const CondPtr& c, CondMode mode) {
    auto tv = testing_util::ProgramTruth(c, attrs_, tuple_, mode);
    EXPECT_TRUE(tv.ok()) << tv.status().ToString();
    return tv.ok() ? *tv : TV3::kU;
  }
};

TEST_F(CondModeTest, NaiveIsSyntacticTwoValued) {
  EXPECT_EQ(Eval(CEq("c1", "c1"), CondMode::kNaive), TV3::kT);
  EXPECT_EQ(Eval(CEq("c1", "c2"), CondMode::kNaive), TV3::kF);
  // Marked-null identity: ⊥1 = ⊥1 true, ⊥1 = ⊥2 false, ⊥1 = 1 false.
  EXPECT_EQ(Eval(CEq("n1", "n1b"), CondMode::kNaive), TV3::kT);
  EXPECT_EQ(Eval(CEq("n1", "n2"), CondMode::kNaive), TV3::kF);
  EXPECT_EQ(Eval(CEq("n1", "c1"), CondMode::kNaive), TV3::kF);
}

TEST_F(CondModeTest, SqlModeNullsAreUnknown) {
  // Any comparison touching a null is u — even ⊥1 = ⊥1 (SQL has no marked
  // nulls).
  EXPECT_EQ(Eval(CEq("n1", "n1b"), CondMode::kSql), TV3::kU);
  EXPECT_EQ(Eval(CEq("n1", "c1"), CondMode::kSql), TV3::kU);
  EXPECT_EQ(Eval(CNeqc("n1", Value::Int(7)), CondMode::kSql), TV3::kU);
  EXPECT_EQ(Eval(CEq("c1", "c1"), CondMode::kSql), TV3::kT);
  EXPECT_EQ(Eval(CEq("c1", "c2"), CondMode::kSql), TV3::kF);
}

TEST_F(CondModeTest, UnifModeTracksMarkedNulls) {
  // (13b): ⊥1 = ⊥1 is t (same unknown value); ⊥1 = ⊥2 is u; 1 = 2 is f.
  EXPECT_EQ(Eval(CEq("n1", "n1b"), CondMode::kUnif), TV3::kT);
  EXPECT_EQ(Eval(CEq("n1", "n2"), CondMode::kUnif), TV3::kU);
  EXPECT_EQ(Eval(CEq("n1", "c1"), CondMode::kUnif), TV3::kU);
  EXPECT_EQ(Eval(CEq("c1", "c2"), CondMode::kUnif), TV3::kF);
}

TEST_F(CondModeTest, ConstNullTestsAreTwoValuedInAllModes) {
  for (CondMode m : {CondMode::kNaive, CondMode::kSql, CondMode::kUnif}) {
    EXPECT_EQ(Eval(CIsNull("n1"), m), TV3::kT);
    EXPECT_EQ(Eval(CIsNull("c1"), m), TV3::kF);
    EXPECT_EQ(Eval(CIsConst("c1"), m), TV3::kT);
    EXPECT_EQ(Eval(CIsConst("n2"), m), TV3::kF);
  }
}

TEST_F(CondModeTest, KleenePropagationInSqlMode) {
  // u ∨ t = t, u ∨ f = u, u ∧ f = f.
  EXPECT_EQ(Eval(COr(CEq("n1", "c1"), CEq("c1", "c1")), CondMode::kSql),
            TV3::kT);
  EXPECT_EQ(Eval(COr(CEq("n1", "c1"), CEq("c1", "c2")), CondMode::kSql),
            TV3::kU);
  EXPECT_EQ(Eval(CAnd(CEq("n1", "c1"), CEq("c1", "c2")), CondMode::kSql),
            TV3::kF);
}

TEST_F(CondModeTest, UnknownAttributeIsError) {
  auto f = testing_util::ProgramTruth(CEq("nope", "c1"), attrs_, tuple_,
                                      CondMode::kNaive);
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kNotFound);
}

// --- AST validation ---------------------------------------------------------

TEST(OutputAttrsTest, ScanSelectProject) {
  Database db = FigureOne(false);
  AlgPtr q = Project(Select(Scan("Orders"), CEqc("price", Value::Int(30))),
                     {"oid"});
  auto attrs = OutputAttrs(q, db);
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(*attrs, std::vector<std::string>{"oid"});
}

TEST(OutputAttrsTest, UnknownRelationOrAttribute) {
  Database db = FigureOne(false);
  EXPECT_FALSE(OutputAttrs(Scan("Nope"), db).ok());
  EXPECT_FALSE(OutputAttrs(Project(Scan("Orders"), {"nope"}), db).ok());
  EXPECT_FALSE(
      OutputAttrs(Select(Scan("Orders"), CEq("nope", "oid")), db).ok());
}

TEST(OutputAttrsTest, ProductRequiresDisjointNames) {
  Database db = FigureOne(false);
  auto bad = OutputAttrs(Product(Scan("Payments"), Scan("Customers")), db);
  EXPECT_FALSE(bad.ok());  // both have cid
  auto good = OutputAttrs(
      Product(Scan("Payments"), Rename(Scan("Customers"), {"cid2", "name"})),
      db);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->size(), 4u);
}

TEST(OutputAttrsTest, SetOpsRequireSameArity) {
  Database db = FigureOne(false);
  EXPECT_FALSE(OutputAttrs(Union(Scan("Orders"), Scan("Payments")), db).ok());
  EXPECT_FALSE(OutputAttrs(Diff(Scan("Orders"), Scan("Payments")), db).ok());
}

TEST(OutputAttrsTest, DivisionSchema) {
  Database db;
  Relation r({"emp", "proj"});
  Relation s({"proj"});
  db.Put("R", r);
  db.Put("S", s);
  auto attrs = OutputAttrs(Division(Scan("R"), Scan("S")), db);
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(*attrs, std::vector<std::string>{"emp"});
  // Divisor attribute not in dividend → error.
  Relation t({"other"});
  db.Put("T", t);
  EXPECT_FALSE(OutputAttrs(Division(Scan("R"), Scan("T")), db).ok());
}

TEST(OutputAttrsTest, InPredicateValidation) {
  Database db = FigureOne(false);
  AlgPtr ok = NotInPredicate(Project(Scan("Orders"), {"oid"}),
                             Project(Scan("Payments"), {"oid"}), {"oid"},
                             {"oid"}, CTrue());
  // Compare columns must exist on the proper sides. Note: both sides call
  // their column "oid" here, which is fine for kNotIn (no product is
  // formed under native evaluation).
  EXPECT_FALSE(OutputAttrs(ok, db).ok());  // joint scope has duplicate names
  AlgPtr renamed = NotInPredicate(Project(Scan("Orders"), {"oid"}),
                                  Rename(Project(Scan("Payments"), {"oid"}),
                                         {"poid"}),
                                  {"oid"}, {"poid"}, CTrue());
  EXPECT_TRUE(OutputAttrs(renamed, db).ok());
}

// --- Desugaring -------------------------------------------------------------

TEST(DesugarTest, SemijoinMatchesManualExpansion) {
  Database db = FigureOne(false);
  AlgPtr semi = Semijoin(Scan("Customers"),
                         Rename(Scan("Payments"), {"pcid", "poid"}),
                         CEq("cid", "pcid"));
  auto core = Desugar(semi, db);
  ASSERT_TRUE(core.ok());
  EXPECT_TRUE(IsCoreGrammar(*core));
  auto direct = EvalSet(semi, db);
  auto expanded = EvalSet(*core, db);
  ASSERT_TRUE(direct.ok() && expanded.ok());
  EXPECT_TRUE(direct->SameRows(*expanded));
}

TEST(DesugarTest, AntijoinMatchesManualExpansion) {
  Database db = FigureOne(false);
  AlgPtr anti = Antijoin(Scan("Customers"),
                         Rename(Scan("Payments"), {"pcid", "poid"}),
                         CEq("cid", "pcid"));
  auto core = Desugar(anti, db);
  ASSERT_TRUE(core.ok());
  auto direct = EvalSet(anti, db);
  auto expanded = EvalSet(*core, db);
  ASSERT_TRUE(direct.ok() && expanded.ok());
  EXPECT_TRUE(direct->SameRows(*expanded));
}

TEST(DesugarTest, InPredicatesMatchUnderNaiveSemantics) {
  // On a database with nulls, the desugared (set-naive) IN / NOT IN must
  // agree with the native naive evaluation (they only diverge under SQL
  // mode).
  Database db = FigureOne(true);
  AlgPtr q = NotInPredicate(Project(Scan("Orders"), {"oid"}),
                            Rename(Project(Scan("Payments"), {"oid"}),
                                   {"poid"}),
                            {"oid"}, {"poid"}, CTrue());
  auto core = Desugar(q, db);
  ASSERT_TRUE(core.ok());
  EXPECT_TRUE(IsCoreGrammar(*core));
  auto direct = EvalSet(q, db);
  auto expanded = EvalSet(*core, db);
  ASSERT_TRUE(direct.ok() && expanded.ok());
  EXPECT_TRUE(direct->SameRows(*expanded));
}

// --- The structural rewrite step --------------------------------------------

TEST(RewriteStepTest, SugarFreeQueriesComeBackAsTheInputPointer) {
  // Desugar and PrepareForTranslation rebuild only what they rewrite: a
  // query without sugar and without ∩ is returned as the input itself.
  Database db = FigureOne(true);
  AlgPtr q = Diff(
      Project(Select(Scan("Orders"), CNeqc("price", Value::Int(30))), {"oid"}),
      Rename(Project(Scan("Payments"), {"oid"}), {"oid"}));
  auto desugared = Desugar(q, db);
  auto prepared = PrepareForTranslation(q, db);
  ASSERT_TRUE(desugared.ok() && prepared.ok());
  EXPECT_EQ(desugared->get(), q.get());
  EXPECT_EQ(prepared->get(), q.get());

  // Only the path down to a rewritten node is copied; siblings are shared.
  AlgPtr lhs = Project(Scan("Orders"), {"oid"});
  AlgPtr sugared =
      Union(lhs, Distinct(Rename(Project(Scan("Payments"), {"oid"}), {"oid"})));
  auto out = Desugar(sugared, db);
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->get(), sugared.get());
  EXPECT_EQ((*out)->kind, OpKind::kUnion);
  EXPECT_EQ((*out)->left.get(), lhs.get());
  EXPECT_EQ((*out)->right.get(), sugared->right->left.get());
}

TEST(RewriteStepTest, WithChildrenKeepsEveryField) {
  const AlgPtr l = Scan("L"), r = Scan("R");
  const AlgPtr l2 = Scan("L2"), r2 = Scan("R2");
  AlgPtr in = NotInPredicate(l, r, {"a", "b"}, {"c", "d"}, CEq("a", "c"));
  EXPECT_EQ(WithChildren(in, l, r).get(), in.get());

  AlgPtr copy = WithChildren(in, l2, r);
  EXPECT_NE(copy.get(), in.get());
  EXPECT_EQ(copy->kind, OpKind::kNotIn);
  EXPECT_EQ(copy->attrs, in->attrs);
  EXPECT_EQ(copy->attrs2, in->attrs2);
  EXPECT_EQ(copy->cond, in->cond);
  EXPECT_EQ(copy->left, l2);
  EXPECT_EQ(copy->right, r);

  // A new right child alone is a change too.
  AlgPtr right_only = WithChildren(in, l, r2);
  EXPECT_NE(right_only.get(), in.get());
  EXPECT_EQ(right_only->left, l);
  EXPECT_EQ(right_only->right, r2);

  // The copy is field for field, whatever the operator keeps: a Dom node
  // given a child still carries its arity, names and extra constants.
  AlgPtr dom = DomK({"x", "y"}, {Value::Int(7), Value::String("s")});
  EXPECT_EQ(WithChildren(dom, nullptr, nullptr).get(), dom.get());
  AlgPtr dom_copy = WithChildren(dom, l, nullptr);
  EXPECT_NE(dom_copy.get(), dom.get());
  EXPECT_EQ(dom_copy->kind, OpKind::kDom);
  EXPECT_EQ(dom_copy->dom_arity, 2u);
  EXPECT_EQ(dom_copy->attrs, dom->attrs);
  EXPECT_EQ(dom_copy->dom_extra, dom->dom_extra);
}

TEST(RewriteStepTest, MapChildrenStopsAtTheFirstError) {
  AlgPtr q = Product(Scan("A"), Scan("B"));
  std::vector<std::string> seen;
  auto failed = MapChildren(q, [&seen](const AlgPtr& c) -> StatusOr<AlgPtr> {
    seen.push_back(c->rel_name);
    return Status::NotFound("no " + c->rel_name);
  });
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().message(), "no A");
  EXPECT_EQ(seen, std::vector<std::string>{"A"});

  auto same = MapChildren(q, [](const AlgPtr& c) -> StatusOr<AlgPtr> {
    return c;
  });
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same->get(), q.get());
  auto renamed = MapChildren(q, [](const AlgPtr& c) -> StatusOr<AlgPtr> {
    return c->rel_name == "B" ? Scan("C") : c;
  });
  ASSERT_TRUE(renamed.ok());
  EXPECT_EQ((*renamed)->ToString(), "(A × C)");
  EXPECT_EQ((*renamed)->left, q->left);
}

// --- Classifiers ------------------------------------------------------------

TEST(ClassifierTest, IsPositiveFragment) {
  EXPECT_TRUE(IsPositive(Select(Scan("R"), CEqc("R_a", Value::Int(1)))));
  EXPECT_TRUE(IsPositive(Union(Scan("R"), Scan("S"))));
  EXPECT_FALSE(IsPositive(Diff(Scan("R"), Scan("S"))));
  EXPECT_FALSE(IsPositive(Select(Scan("R"), CNeqc("R_a", Value::Int(1)))));
  EXPECT_FALSE(IsPositive(Select(Scan("R"), CIsNull("R_a"))));
}

TEST(ClassifierTest, IsPosForallGAllowsDivisionByBaseRelation) {
  AlgPtr div = Division(Scan("R"), Scan("S"));
  EXPECT_TRUE(IsPosForallG(div));
  EXPECT_FALSE(IsPosForallG(Diff(Scan("R"), Scan("S"))));
  // Division by a computed relation is outside the fragment.
  EXPECT_FALSE(IsPosForallG(Division(Scan("R"), Project(Scan("S"), {}))));
}

TEST(ClassifierTest, QueryConstantsDeduplicated) {
  AlgPtr q = Select(Scan("R"), CAnd(CEqc("R_a", Value::Int(7)),
                                    CNeqc("R_b", Value::Int(7))));
  auto consts = QueryConstants(q);
  ASSERT_EQ(consts.size(), 1u);
  EXPECT_EQ(consts[0], Value::Int(7));
}

TEST(ClassifierTest, ScannedRelations) {
  AlgPtr q = Diff(Project(Product(Scan("R"), Rename(Scan("S"), {"x", "y"})),
                          {"R_a"}),
                  Rename(Scan("T"), {"R_a"}));
  EXPECT_EQ(ScannedRelations(q), (std::vector<std::string>{"R", "S", "T"}));
}

TEST(AlgebraToStringTest, RendersOperators) {
  AlgPtr q = Diff(Project(Scan("Orders"), {"oid"}),
                  Project(Scan("Payments"), {"oid"}));
  EXPECT_EQ(q->ToString(), "(π{oid}(Orders) − π{oid}(Payments))");
}

}  // namespace
}  // namespace incdb
