// Dedicated coverage for src/algebra/desugar.cpp: the sugar operators
// (join / semijoin / antijoin / [NOT] IN / DISTINCT) must rewrite into
// the core grammar and evaluate identically to their sugared forms under
// naive set semantics, on the paper's Figure 1 database and on the
// QueryZoo / RandomDatabase property instances.

#include <gtest/gtest.h>

#include <random>

#include "algebra/builder.h"
#include "eval/eval.h"
#include "tests/testing_util.h"

namespace incdb {
namespace {

using testing_util::FigureOne;
using testing_util::QueryZoo;
using testing_util::RandomDatabase;

bool IsSugarKind(OpKind k) {
  return k == OpKind::kJoin || k == OpKind::kSemijoin ||
         k == OpKind::kAntijoin || k == OpKind::kIn || k == OpKind::kNotIn ||
         k == OpKind::kDistinct;
}

bool ContainsSugar(const AlgPtr& q) {
  if (!q) return false;
  if (IsSugarKind(q->kind)) return true;
  return ContainsSugar(q->left) || ContainsSugar(q->right);
}

/// The sugared query shapes over the Figure 1 schema. Right-hand sides are
/// renamed so the product expansions keep attribute names disjoint.
std::vector<std::pair<const char*, AlgPtr>> SugaredFigureOneQueries() {
  AlgPtr orders = Scan("Orders");
  AlgPtr payments = Rename(Scan("Payments"), {"pcid", "poid"});
  return {
      {"join", Join(orders, payments, CEq("oid", "poid"))},
      {"semijoin", Semijoin(orders, payments, CEq("oid", "poid"))},
      {"antijoin", Antijoin(orders, payments, CEq("oid", "poid"))},
      {"in", InPredicate(orders, payments, {"oid"}, {"poid"}, CTrue())},
      {"not-in", NotInPredicate(orders, payments, {"oid"}, {"poid"}, CTrue())},
      {"distinct", Distinct(Project(orders, {"title"}))},
      {"nested",
       Antijoin(Project(orders, {"oid"}),
                Semijoin(payments, Rename(Scan("Customers"), {"ccid", "name"}),
                         CEq("pcid", "ccid")),
                CEq("oid", "poid"))},
  };
}

TEST(DesugarTest, RemovesEverySugarOperator) {
  for (bool with_null : {false, true}) {
    Database db = FigureOne(with_null);
    for (const auto& [name, q] : SugaredFigureOneQueries()) {
      auto core = Desugar(q, db);
      ASSERT_TRUE(core.ok()) << name << ": " << core.status().ToString();
      EXPECT_FALSE(ContainsSugar(*core)) << name << " -> "
                                         << (*core)->ToString();
      EXPECT_TRUE(IsCoreGrammar(*core)) << name << " -> "
                                        << (*core)->ToString();
    }
  }
}

TEST(DesugarTest, SugaredAndDesugaredAgreeOnFigureOne) {
  for (bool with_null : {false, true}) {
    Database db = FigureOne(with_null);
    for (const auto& [name, q] : SugaredFigureOneQueries()) {
      auto core = Desugar(q, db);
      ASSERT_TRUE(core.ok()) << name;
      auto sugared = EvalSet(q, db);
      auto desugared = EvalSet(*core, db);
      ASSERT_TRUE(sugared.ok()) << name << ": " << sugared.status().ToString();
      ASSERT_TRUE(desugared.ok())
          << name << ": " << desugared.status().ToString();
      EXPECT_TRUE(sugared->SameRows(*desugared))
          << name << " (with_null=" << with_null << "): sugared "
          << sugared->ToString() << " vs desugared " << desugared->ToString();
    }
  }
}

TEST(DesugarTest, IdentityOnCoreGrammarZoo) {
  // On the QueryZoo's sugar-free shapes desugaring must be a structural
  // no-op; its ⋉/▷/[NOT] IN shapes must come out in the core grammar.
  std::mt19937_64 rng(11);
  Database rdb = RandomDatabase(rng);
  for (const AlgPtr& q : QueryZoo()) {
    auto core = Desugar(q, rdb);
    ASSERT_TRUE(core.ok()) << q->ToString();
    if (IsCoreGrammar(q)) {
      EXPECT_EQ((*core)->ToString(), q->ToString());
    } else {
      EXPECT_TRUE(IsCoreGrammar(*core)) << (*core)->ToString();
    }
  }
}

TEST(DesugarTest, ZooEvaluationUnchangedOverRandomDatabases) {
  std::mt19937_64 rng(2026);
  for (int round = 0; round < 10; ++round) {
    Database db = RandomDatabase(rng);
    for (const AlgPtr& q : QueryZoo()) {
      auto core = Desugar(q, db);
      ASSERT_TRUE(core.ok()) << q->ToString();
      auto before = EvalSet(q, db);
      auto after = EvalSet(*core, db);
      ASSERT_TRUE(before.ok() && after.ok()) << q->ToString();
      EXPECT_TRUE(before->SameRows(*after)) << q->ToString();
    }
  }
}

TEST(DesugarTest, SugaredZooAgreesOverRandomDatabases) {
  // Sugared shapes over the RandomDatabase schema (R, S binary; T unary),
  // evaluated natively vs after desugaring, across seeded instances.
  AlgPtr r = Scan("R");
  AlgPtr s = Scan("S");
  AlgPtr t = Scan("T");
  std::vector<std::pair<const char*, AlgPtr>> sugared = {
      {"join", Join(r, s, CEq("R_b", "S_a"))},
      {"semijoin", Semijoin(r, s, CEq("R_a", "S_a"))},
      {"antijoin", Antijoin(r, s, CEq("R_a", "S_a"))},
      {"in", InPredicate(Project(r, {"R_a"}), t, {"R_a"}, {"T_a"}, CTrue())},
      {"not-in",
       NotInPredicate(Project(r, {"R_a"}), t, {"R_a"}, {"T_a"}, CTrue())},
      {"semijoin-of-antijoin",
       Semijoin(Antijoin(r, t, CEq("R_a", "T_a")), s, CEq("R_b", "S_b"))},
  };
  std::mt19937_64 rng(314);
  for (int round = 0; round < 10; ++round) {
    Database db = RandomDatabase(rng);
    for (const auto& [name, q] : sugared) {
      auto core = Desugar(q, db);
      ASSERT_TRUE(core.ok()) << name << ": " << core.status().ToString();
      EXPECT_FALSE(ContainsSugar(*core)) << name;
      auto before = EvalSet(q, db);
      auto after = EvalSet(*core, db);
      ASSERT_TRUE(before.ok() && after.ok()) << name;
      EXPECT_TRUE(before->SameRows(*after))
          << name << ": " << before->ToString() << " vs " << after->ToString();
    }
  }
}

TEST(DesugarTest, DivisionAndUnifyAntijoinPassThrough) {
  // Non-sugar extended operators survive desugaring untouched.
  std::mt19937_64 rng(8);
  Database db = RandomDatabase(rng);
  AlgPtr div = Division(Scan("R"), Rename(Scan("T"), {"R_b"}));
  AlgPtr aju = AntijoinUnify(Scan("R"), Scan("S"));
  for (const AlgPtr& q : {div, aju}) {
    auto core = Desugar(q, db);
    ASSERT_TRUE(core.ok());
    EXPECT_EQ((*core)->kind, q->kind);
    auto before = EvalSet(q, db);
    auto after = EvalSet(*core, db);
    ASSERT_TRUE(before.ok() && after.ok());
    EXPECT_TRUE(before->SameRows(*after));
  }
}

}  // namespace
}  // namespace incdb
