// Tests for src/approx: the (Qt, Qf) scheme of Fig. 2(a) and the (Q+, Q?)
// scheme of Fig. 2(b), against the theorems of §4.2:
//  * Theorem 4.6: Qt(D) ⊆ cert⊥(Q,D), Qf(D) ⊆ cert⊥(¬Q,D), Qt = Q on
//    complete databases;
//  * Theorem 4.7: Q+(D) ⊆ cert⊥(Q,D) and v(Q+(D)) ⊆ Q(v(D)) ⊆ v(Q?(D));
//  * Theorem 4.8: bag bounds #(ā,Q+(D)) ≤ □Q(D,ā) ≤ #(ā,Q?(D));
//  * the direct ⋉/▷ rules: sound, and at least as precise as translating
//    the core expansion.

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <vector>

#include "api/session.h"
#include "approx/approx.h"
#include "certain/certain.h"
#include "certain/valuation_family.h"
#include "tests/testing_util.h"

namespace incdb {
namespace {

using testing_util::EnvOr;
using testing_util::FigureOne;
using testing_util::IdentityBindings;
using testing_util::Parameterise;
using testing_util::QueryZoo;
using testing_util::RandomDatabase;
using testing_util::RandomQueryGen;

// --- Structure of the translations -------------------------------------------

TEST(TranslateTest, BaseRelationIsItself) {
  Database db = FigureOne(true);
  auto plus = TranslatePlus(Scan("Orders"), db);
  ASSERT_TRUE(plus.ok());
  EXPECT_EQ((*plus)->ToString(), "Orders");
  auto maybe = TranslateMaybe(Scan("Orders"), db);
  ASSERT_TRUE(maybe.ok());
  EXPECT_EQ((*maybe)->ToString(), "Orders");
}

TEST(TranslateTest, DifferenceBecomesUnificationAntijoin) {
  Database db = FigureOne(true);
  AlgPtr q = Diff(Project(Scan("Orders"), {"oid"}),
                  Rename(Project(Scan("Payments"), {"oid"}), {"oid"}));
  auto plus = TranslatePlus(q, db);
  ASSERT_TRUE(plus.ok());
  EXPECT_NE((*plus)->ToString().find("⋉⇑"), std::string::npos);
}

TEST(TranslateTest, Fig2aUsesDomProducts) {
  Database db = FigureOne(true);
  AlgPtr q = Diff(Project(Scan("Orders"), {"oid"}),
                  Rename(Project(Scan("Payments"), {"oid"}), {"oid"}));
  auto qt = TranslateCertTrue(q, db);
  ASSERT_TRUE(qt.ok());
  EXPECT_NE((*qt)->ToString().find("Dom"), std::string::npos);
}

TEST(TranslateTest, RejectsNonCoreOperators) {
  Database db;
  db.Put("R", Relation({"a", "b"}));
  db.Put("S", Relation({"b"}));
  auto res = TranslatePlus(Division(Scan("R"), Scan("S")), db);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kUnsupported);
}

TEST(TranslateTest, IntersectionIsRewrittenViaDifference) {
  Database db;
  Relation r({"x"}), s({"x"});
  r.Add({Value::Int(1)});
  s.Add({Value::Int(1)});
  db.Put("R", r);
  db.Put("S", s);
  auto prepared = PrepareForTranslation(Intersect(Scan("R"), Scan("S")), db);
  ASSERT_TRUE(prepared.ok());
  EXPECT_TRUE(IsCoreGrammar(*prepared));
  auto plus = TranslatePlus(Intersect(Scan("R"), Scan("S")), db);
  ASSERT_TRUE(plus.ok());
}

// --- Figure 1 behaviour -------------------------------------------------------

TEST(ApproxFig1Test, UnpaidOrdersPlusIsEmptyAndMaybeKeepsAll) {
  Database db = FigureOne(true);
  AlgPtr q = Diff(Project(Scan("Orders"), {"oid"}),
                  Rename(Project(Scan("Payments"), {"oid"}), {"oid"}));
  auto plus = EvalPlus(q, db);
  ASSERT_TRUE(plus.ok());
  EXPECT_TRUE(plus->Empty());  // no certainly-unpaid order
  auto maybe = EvalMaybe(q, db);
  ASSERT_TRUE(maybe.ok());
  // o2 and o3 are possibly unpaid (o1 is definitely paid).
  EXPECT_EQ(maybe->SortedTuples(),
            (std::vector<Tuple>{Tuple{Value::String("o2")},
                                Tuple{Value::String("o3")}}));
}

TEST(ApproxFig1Test, TautologySelectionRecoveredByPlus) {
  // Q+ returns {c1, c2} where SQL returned only {c1}: the θ* translation
  // of the disjunction keeps the null row via the possible branch... and
  // here both rows are certain.
  Database db = FigureOne(true);
  AlgPtr q = Project(Select(Scan("Payments"),
                            COr(CEqc("oid", Value::String("o2")),
                                CNeqc("oid", Value::String("o2")))),
                     {"cid"});
  auto plus = EvalPlus(q, db);
  ASSERT_TRUE(plus.ok());
  // (A≠c)* demands const(A), so the ⊥ row is *not* certain under Q+ —
  // the approximation is allowed to miss it (it under-approximates).
  auto cert = CertWithNulls(q, db);
  ASSERT_TRUE(cert.ok());
  EXPECT_TRUE(plus->SubBagOf(*cert));
  EXPECT_TRUE(plus->Contains(Tuple{Value::String("c1")}));
}

// --- Theorem 4.7: correctness guarantees (property tests) ---------------------

class SchemeProperty : public ::testing::TestWithParam<int> {};

TEST_P(SchemeProperty, PlusIsSubsetOfCertAndSandwich) {
  std::mt19937_64 rng(GetParam());
  Database db = RandomDatabase(rng, 3, 3, 2);
  std::set<uint64_t> ids = db.NullIds();
  std::vector<uint64_t> nulls(ids.begin(), ids.end());
  for (const AlgPtr& q : QueryZoo()) {
    auto plus = EvalPlus(q, db);
    auto maybe = EvalMaybe(q, db);
    auto cert = CertWithNulls(q, db);
    ASSERT_TRUE(plus.ok() && maybe.ok() && cert.ok()) << q->ToString();
    // Q+(D) ⊆ cert⊥(Q, D).
    EXPECT_TRUE(plus->SubBagOf(*cert))
        << q->ToString() << "\n Q+: " << plus->ToString()
        << "\n cert⊥: " << cert->ToString();
    // Sandwich (5): v(Q+(D)) ⊆ Q(v(D)) ⊆ v(Q?(D)) for every valuation v.
    std::vector<Value> consts = FamilyConstants(db, QueryConstants(q));
    Status st = ForEachValuation(
        nulls, consts, 200000, [&](const Valuation& v) {
          auto ans = EvalSet(q, v.ApplySet(db));
          EXPECT_TRUE(ans.ok());
          for (const Tuple& t : plus->SortedTuples()) {
            EXPECT_TRUE(ans->Contains(v.Apply(t)))
                << "false positive in Q+ for " << q->ToString();
          }
          Relation vmaybe = v.ApplySet(*maybe);
          for (const Tuple& t : ans->SortedTuples()) {
            EXPECT_TRUE(vmaybe.Contains(t))
                << "Q? missed possible answer for " << q->ToString();
          }
          return !::testing::Test::HasFailure();
        });
    ASSERT_TRUE(st.ok());
    if (::testing::Test::HasFailure()) return;
  }
}

TEST_P(SchemeProperty, Fig2aSoundAndFig2bEquallyOrMorePrecise) {
  std::mt19937_64 rng(GetParam() + 1000);
  Database db = RandomDatabase(rng, 3, 3, 2);
  EvalOptions big;
  big.max_tuples = 5'000'000;
  for (const AlgPtr& q : QueryZoo()) {
    auto qt = EvalCertTrue(q, db, big);
    auto cert = CertWithNulls(q, db);
    ASSERT_TRUE(cert.ok());
    if (!qt.ok()) {
      // Dom-product blow-up is expected for some shapes (that is E2).
      EXPECT_EQ(qt.status().code(), StatusCode::kResourceExhausted)
          << qt.status().ToString();
      continue;
    }
    // Theorem 4.6: Qt(D) ⊆ cert⊥(Q, D).
    EXPECT_TRUE(qt->SubBagOf(*cert))
        << q->ToString() << "\n Qt: " << qt->ToString()
        << "\n cert⊥: " << cert->ToString();
  }
}

TEST_P(SchemeProperty, QfIsSubsetOfCertainlyFalse) {
  std::mt19937_64 rng(GetParam() + 2000);
  Database db = RandomDatabase(rng, 2, 2, 1);
  std::set<uint64_t> ids = db.NullIds();
  std::vector<uint64_t> nulls(ids.begin(), ids.end());
  EvalOptions big;
  big.max_tuples = 5'000'000;
  for (const AlgPtr& q : QueryZoo()) {
    auto qf = EvalCertFalse(q, db, big);
    if (!qf.ok()) {
      EXPECT_EQ(qf.status().code(), StatusCode::kResourceExhausted);
      continue;
    }
    // Every tuple of Qf is certainly absent from the answer: for every
    // valuation v, v(t) ∉ Q(v(D)).
    std::vector<Value> consts = FamilyConstants(db, QueryConstants(q));
    Status st = ForEachValuation(
        nulls, consts, 100000, [&](const Valuation& v) {
          auto ans = EvalSet(q, v.ApplySet(db));
          EXPECT_TRUE(ans.ok());
          for (const Tuple& t : qf->SortedTuples()) {
            EXPECT_FALSE(ans->Contains(v.Apply(t)))
                << "Qf contains a possible answer for " << q->ToString();
          }
          return !::testing::Test::HasFailure();
        });
    ASSERT_TRUE(st.ok());
    if (::testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchemeProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- Theorem 4.7 over random queries, through the Session ---------------------

TEST(SchemeRandomTest, SandwichHoldsThroughSessionWithBindings) {
  // Theorem 4.7 over the differential fuzzer's random queries, through
  // the Session's bind-then-translate path: with every Int constant
  // turned into a placeholder, CertainPlus/CertainMaybe under the
  // bindings answer exactly Q+/Q? of the literal query, and
  // v(Q+(D)) ⊆ Q(v(D)) ⊆ v(Q?(D)) for every valuation of the family.
  // Only what PrepareForTranslation rejects is skipped; order comparisons
  // stay, since the sandwich holds valuation by valuation.
  // INCDB_FUZZ_SEED moves the whole corpus.
  constexpr size_t kQueries = 600;
  std::mt19937_64 rng(EnvOr("INCDB_FUZZ_SEED", 20260730));
  RandomQueryGen gen(rng);
  size_t qualifying = 0, with_params = 0;
  for (int i = 0; i < 10000 && qualifying < kQueries; ++i) {
    Database db = RandomDatabase(rng, 3, 3, 2);
    AlgPtr q = gen.Gen(2 + i % 3);
    if (!PrepareForTranslation(q, db).ok()) continue;
    ++qualifying;
    AlgPtr tmpl = Parameterise(q);
    std::vector<Value> params = IdentityBindings(tmpl);
    with_params += params.empty() ? 0 : 1;

    Session sess(db);
    auto plus = sess.CertainPlus(tmpl, params);
    auto maybe = sess.CertainMaybe(tmpl, params);
    auto plus_lit = EvalPlus(q, db);
    auto maybe_lit = EvalMaybe(q, db);
    ASSERT_TRUE(plus.ok() && maybe.ok() && plus_lit.ok() && maybe_lit.ok())
        << q->ToString() << ": " << plus.status().ToString() << " / "
        << maybe.status().ToString();
    EXPECT_TRUE(plus->IdenticalTo(*plus_lit))
        << tmpl->ToString() << "\n bound Q+: " << plus->ToString()
        << "\n literal Q+: " << plus_lit->ToString();
    EXPECT_TRUE(maybe->IdenticalTo(*maybe_lit))
        << tmpl->ToString() << "\n bound Q?: " << maybe->ToString()
        << "\n literal Q?: " << maybe_lit->ToString();

    std::set<uint64_t> ids = db.NullIds();
    std::vector<uint64_t> nulls(ids.begin(), ids.end());
    std::vector<Value> consts = FamilyConstants(db, QueryConstants(q));
    Status st = ForEachValuation(
        nulls, consts, 200000, [&](const Valuation& v) {
          auto ans = EvalSet(q, v.ApplySet(db));
          EXPECT_TRUE(ans.ok()) << ans.status().ToString();
          if (!ans.ok()) return false;
          for (const Tuple& t : plus->SortedTuples()) {
            EXPECT_TRUE(ans->Contains(v.Apply(t)))
                << "false positive in Q+ for " << q->ToString();
          }
          Relation vmaybe = v.ApplySet(*maybe);
          for (const Tuple& t : ans->SortedTuples()) {
            EXPECT_TRUE(vmaybe.Contains(t))
                << "Q? missed possible answer for " << q->ToString();
          }
          return !::testing::Test::HasFailure();
        });
    ASSERT_TRUE(st.ok()) << st.ToString();
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(qualifying, kQueries);
  // The bindings path is exercised, not only parameter-free queries.
  EXPECT_GE(with_params, kQueries / 4);
}

// --- Complete databases: no loss ----------------------------------------------

TEST(ApproxCompleteTest, PlusAndMaybeEqualQueryOnCompleteDb) {
  // Theorem 4.6/4.7: on complete databases the schemes lose nothing.
  std::mt19937_64 rng(17);
  for (int round = 0; round < 10; ++round) {
    Database db = RandomDatabase(rng, 4, 4, /*n_nulls=*/0);
    for (const AlgPtr& q : QueryZoo()) {
      auto plain = EvalSet(q, db);
      auto plus = EvalPlus(q, db);
      auto maybe = EvalMaybe(q, db);
      ASSERT_TRUE(plain.ok() && plus.ok() && maybe.ok());
      EXPECT_TRUE(plain->SameRows(*plus)) << q->ToString();
      EXPECT_TRUE(plain->SameRows(*maybe)) << q->ToString();
    }
  }
}

// --- Theorem 4.8: bag bounds ----------------------------------------------------

TEST(ApproxBagTest, PlusAndMaybeBracketMinimalMultiplicity) {
  std::mt19937_64 rng(23);
  for (int round = 0; round < 6; ++round) {
    Database db = RandomDatabase(rng, 3, 3, 2);
    for (const AlgPtr& q : QueryZoo()) {
      auto plus_q = TranslatePlus(q, db);
      auto maybe_q = TranslateMaybe(q, db);
      ASSERT_TRUE(plus_q.ok() && maybe_q.ok());
      auto plus = EvalBag(*plus_q, db);
      auto maybe = EvalBag(*maybe_q, db);
      ASSERT_TRUE(plus.ok() && maybe.ok());
      // Probe: every tuple appearing in Q?(D) (superset of candidates).
      for (const Tuple& t : maybe->SortedTuples()) {
        auto bounds = BagMultiplicityBounds(q, db, t);
        ASSERT_TRUE(bounds.ok());
        EXPECT_LE(plus->Count(t), bounds->min)
            << q->ToString() << " tuple " << t.ToString();
        EXPECT_LE(bounds->min, maybe->Count(t))
            << q->ToString() << " tuple " << t.ToString();
      }
      // And tuples of Q+ (must also satisfy the bracket).
      for (const Tuple& t : plus->SortedTuples()) {
        auto bounds = BagMultiplicityBounds(q, db, t);
        ASSERT_TRUE(bounds.ok());
        EXPECT_LE(plus->Count(t), bounds->min) << q->ToString();
      }
    }
  }
}

TEST(TranslateTest, DistinctAndSqlSugarAreHandled) {
  // The SQL translator emits Distinct and [NOT] IN nodes; the Fig. 2
  // pipeline accepts them via PrepareForTranslation, which keeps δ (the
  // Fig. 2(b) rules map over it) and turns NOT IN into the ▷ they
  // translate directly.
  Database db = FigureOne(true);
  AlgPtr q = Distinct(NotInPredicate(
      Project(Scan("Orders"), {"oid"}),
      Rename(Project(Scan("Payments"), {"oid"}), {"poid"}), {"oid"},
      {"poid"}, CTrue()));
  auto prepared = PrepareForTranslation(q, db);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ((*prepared)->kind, OpKind::kDistinct) << (*prepared)->ToString();
  const AlgPtr& anti = (*prepared)->left;
  EXPECT_EQ(anti->kind, OpKind::kAntijoin) << anti->ToString();
  EXPECT_EQ(anti->cond->ToString(),
            CAnd(CTrue(), CEq("oid", "poid"))->ToString());
  EXPECT_TRUE(IsCoreGrammar(anti->left));
  EXPECT_TRUE(IsCoreGrammar(anti->right));
  EXPECT_FALSE(IsCoreGrammar(anti));  // ▷ is sugar, kept on purpose
  auto plus = EvalPlus(q, db);
  ASSERT_TRUE(plus.ok());
  EXPECT_TRUE(plus->Empty());  // nothing certainly unpaid under the NULL
}

TEST(TranslateTest, DistinctKeepsTheBagBracket) {
  // R = {(1,1), (1,2)} and q = δ(π_a R): □q = 1 for (1). Q+ = δ(π_a R)
  // counts it once under EvalBag; dropping δ would count it twice, above
  // the certain multiplicity (Theorem 4.8).
  Database db;
  Relation r({"a", "b"});
  r.Add({Value::Int(1), Value::Int(1)});
  r.Add({Value::Int(1), Value::Int(2)});
  db.Put("R", r);
  AlgPtr q = Distinct(Project(Scan("R"), {"a"}));
  auto plus = TranslatePlus(q, db);
  auto maybe = TranslateMaybe(q, db);
  ASSERT_TRUE(plus.ok() && maybe.ok());
  auto bag_plus = EvalBag(*plus, db);
  auto bag_maybe = EvalBag(*maybe, db);
  ASSERT_TRUE(bag_plus.ok() && bag_maybe.ok());
  const Tuple one{Value::Int(1)};
  auto bounds = BagMultiplicityBounds(q, db, one);
  ASSERT_TRUE(bounds.ok()) << bounds.status().ToString();
  EXPECT_EQ(bounds->min, 1u);
  EXPECT_EQ(bag_plus->Count(one), 1u) << (*plus)->ToString();
  EXPECT_LE(bag_plus->Count(one), bounds->min);
  EXPECT_LE(bounds->min, bag_maybe->Count(one));
}

// --- The direct ⋉/▷ rules ------------------------------------------------------

bool HasOp(const AlgPtr& q, OpKind kind) {
  return q->kind == kind || (q->left && HasOp(q->left, kind)) ||
         (q->right && HasOp(q->right, kind));
}

bool HasSemijoinSugar(const AlgPtr& q) {
  return HasOp(q, OpKind::kSemijoin) || HasOp(q, OpKind::kAntijoin) ||
         HasOp(q, OpKind::kIn) || HasOp(q, OpKind::kNotIn);
}

/// Every gate the direct ⋉/▷ rules must pass on `q` over `db`, with the
/// failing query in each message:
///  * Q+(Desugar q) ⊆ Q+(q) ⊆ cert⊥(q) and Q?(q) ⊆ Q?(Desugar q): the
///    direct rules are sound and at least as precise as translating the
///    expansion;
///  * v(Q+(D)) ⊆ Q(v(D)) ⊆ v(Q?(D)) for every valuation v (Theorem 4.7);
///  * #(ā, Q+(D)) ≤ □Q(D, ā) ≤ #(ā, Q?(D)) under EvalBag (Theorem 4.8).
/// cert⊥ and □Q need a generic query, so order comparisons skip them.
void CheckDirectRules(const AlgPtr& q, const Database& db) {
  const std::string where = q->ToString();
  auto desugared = Desugar(q, db);
  ASSERT_TRUE(desugared.ok()) << where;
  auto plus = EvalPlus(q, db);
  auto maybe = EvalMaybe(q, db);
  auto old_plus = EvalPlus(*desugared, db);
  auto old_maybe = EvalMaybe(*desugared, db);
  ASSERT_TRUE(plus.ok() && maybe.ok() && old_plus.ok() && old_maybe.ok())
      << where << ": " << plus.status().ToString() << " / "
      << maybe.status().ToString();
  EXPECT_TRUE(old_plus->SubBagOf(*plus))
      << where << "\n Q+(Desugar q): " << old_plus->ToString()
      << "\n Q+(q): " << plus->ToString();
  EXPECT_TRUE(maybe->SubBagOf(*old_maybe))
      << where << "\n Q?(q): " << maybe->ToString()
      << "\n Q?(Desugar q): " << old_maybe->ToString();
  const bool generic = !QueryHasOrderComparison(q);
  if (generic) {
    auto cert = CertWithNulls(q, db);
    ASSERT_TRUE(cert.ok()) << where << ": " << cert.status().ToString();
    EXPECT_TRUE(plus->SubBagOf(*cert))
        << where << "\n Q+: " << plus->ToString()
        << "\n cert⊥: " << cert->ToString();
  }

  std::set<uint64_t> ids = db.NullIds();
  std::vector<uint64_t> nulls(ids.begin(), ids.end());
  std::vector<Value> consts = FamilyConstants(db, QueryConstants(q));
  Status st = ForEachValuation(nulls, consts, 200000, [&](const Valuation& v) {
    auto ans = EvalSet(q, v.ApplySet(db));
    EXPECT_TRUE(ans.ok()) << ans.status().ToString();
    if (!ans.ok()) return false;
    for (const Tuple& t : plus->SortedTuples()) {
      EXPECT_TRUE(ans->Contains(v.Apply(t)))
          << "false positive " << t.ToString() << " in Q+ for " << where;
    }
    Relation vmaybe = v.ApplySet(*maybe);
    for (const Tuple& t : ans->SortedTuples()) {
      EXPECT_TRUE(vmaybe.Contains(t))
          << "Q? missed possible answer " << t.ToString() << " for " << where;
    }
    return !::testing::Test::HasFailure();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();

  if (!generic) return;
  auto plus_q = TranslatePlus(q, db);
  auto maybe_q = TranslateMaybe(q, db);
  ASSERT_TRUE(plus_q.ok() && maybe_q.ok()) << where;
  auto bag_plus = EvalBag(*plus_q, db);
  auto bag_maybe = EvalBag(*maybe_q, db);
  ASSERT_TRUE(bag_plus.ok() && bag_maybe.ok()) << where;
  std::set<Tuple> probes;
  for (const auto& [t, c] : bag_plus->rows()) probes.insert(t);
  for (const auto& [t, c] : bag_maybe->rows()) probes.insert(t);
  for (const Tuple& t : probes) {
    auto bounds = BagMultiplicityBounds(q, db, t);
    ASSERT_TRUE(bounds.ok()) << where << ": " << bounds.status().ToString();
    EXPECT_LE(bag_plus->Count(t), bounds->min)
        << where << " tuple " << t.ToString();
    EXPECT_LE(bounds->min, bag_maybe->Count(t))
        << where << " tuple " << t.ToString();
  }
}

TEST(SemijoinRulesTest, ZooAndRandomQueriesPassEveryGate) {
  // The zoo's ⋉/▷/[NOT] IN shapes over a few databases, then kQueries
  // random queries that use them; INCDB_FUZZ_SEED moves the corpus.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    std::mt19937_64 rng(seed);
    Database db = RandomDatabase(rng, 3, 3, 2);
    for (const AlgPtr& q : QueryZoo()) {
      if (!HasSemijoinSugar(q)) continue;
      CheckDirectRules(q, db);
      if (::testing::Test::HasFailure()) return;
    }
  }
  constexpr size_t kQueries = 600;
  std::mt19937_64 rng(EnvOr("INCDB_FUZZ_SEED", 20260730) + 18);
  RandomQueryGen gen(rng);
  size_t qualifying = 0;
  for (int i = 0; i < 20000 && qualifying < kQueries; ++i) {
    Database db = RandomDatabase(rng, 3, 3, 2);
    AlgPtr q = gen.Gen(2 + i % 3);
    if (!HasSemijoinSugar(q) || !PrepareForTranslation(q, db).ok()) continue;
    ++qualifying;
    CheckDirectRules(q, db);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(qualifying, kQueries) << "the generator ran dry";
}

TEST(SemijoinRulesTest, DirectAntijoinRuleKeepsMoreCertainAnswers) {
  // R = {1, ⊥1}, S = {2}: 1 has no partner under θ? = (a = b ∨ null(a) ∨
  // null(b)), so (R ▷ S)+ = R+ ▷θ? S? keeps it, and 1 is certain. The
  // expansion's Q+ = R+ ⋉⇑ π(σθ?(R? × S?)) loses it: ⊥1 pairs with 2
  // through null(a), and 1 unifies with ⊥1.
  Database db;
  Relation r({"a"}), s({"b"});
  r.Add({Value::Int(1)});
  r.Add({Value::Null(1)});
  s.Add({Value::Int(2)});
  db.Put("R", r);
  db.Put("S", s);
  AlgPtr q = Antijoin(Scan("R"), Scan("S"), CEq("a", "b"));
  auto desugared = Desugar(q, db);
  ASSERT_TRUE(desugared.ok());
  auto old_plus = EvalPlus(*desugared, db);
  auto plus = EvalPlus(q, db);
  auto cert = CertWithNulls(q, db);
  ASSERT_TRUE(old_plus.ok() && plus.ok() && cert.ok());
  const std::vector<Tuple> one = {Tuple{Value::Int(1)}};
  EXPECT_TRUE(old_plus->Empty()) << old_plus->ToString();
  EXPECT_EQ(plus->SortedTuples(), one);
  EXPECT_EQ(cert->SortedTuples(), one);
}

}  // namespace
}  // namespace incdb
