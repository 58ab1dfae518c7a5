// Property-style sweeps over algebraic laws the implementation relies on:
// Kleene/L6v logic identities, negation propagation, the θ* guard
// property, unifiability as an existential statement, and bag-algebra
// identities. These are the invariants behind the paper's theorems, so
// they get exhaustive or randomized coverage of their own.

#include <gtest/gtest.h>

#include <functional>
#include <random>

#include "algebra/builder.h"
#include "certain/certain.h"
#include "certain/valuation_family.h"
#include "eval/eval.h"
#include "logic/kleene.h"
#include "logic/sixvalued.h"
#include "tests/testing_util.h"

namespace incdb {
namespace {

const TV3 kAll3[] = {TV3::kF, TV3::kU, TV3::kT};
const TV6 kAll6[] = {TV6::kF, TV6::kSF, TV6::kS,
                     TV6::kU, TV6::kST, TV6::kT};

// --- Kleene laws (exhaustive) ------------------------------------------------

TEST(KleeneLawsTest, CommutativityAndAssociativity) {
  for (TV3 a : kAll3) {
    for (TV3 b : kAll3) {
      EXPECT_EQ(Kleene::And(a, b), Kleene::And(b, a));
      EXPECT_EQ(Kleene::Or(a, b), Kleene::Or(b, a));
      for (TV3 c : kAll3) {
        EXPECT_EQ(Kleene::And(Kleene::And(a, b), c),
                  Kleene::And(a, Kleene::And(b, c)));
        EXPECT_EQ(Kleene::Or(Kleene::Or(a, b), c),
                  Kleene::Or(a, Kleene::Or(b, c)));
      }
    }
  }
}

TEST(KleeneLawsTest, DistributivityAndAbsorption) {
  // The properties Theorem 5.3 says database optimizers need.
  for (TV3 a : kAll3) {
    EXPECT_EQ(Kleene::And(a, a), a);  // idempotence
    EXPECT_EQ(Kleene::Or(a, a), a);
    for (TV3 b : kAll3) {
      EXPECT_EQ(Kleene::And(a, Kleene::Or(a, b)), a);  // absorption
      EXPECT_EQ(Kleene::Or(a, Kleene::And(a, b)), a);
      for (TV3 c : kAll3) {
        EXPECT_EQ(Kleene::And(a, Kleene::Or(b, c)),
                  Kleene::Or(Kleene::And(a, b), Kleene::And(a, c)));
        EXPECT_EQ(Kleene::Or(a, Kleene::And(b, c)),
                  Kleene::And(Kleene::Or(a, b), Kleene::Or(a, c)));
      }
    }
  }
}

TEST(KleeneLawsTest, DeMorganAndDoubleNegation) {
  for (TV3 a : kAll3) {
    EXPECT_EQ(Kleene::Not(Kleene::Not(a)), a);
    for (TV3 b : kAll3) {
      EXPECT_EQ(Kleene::Not(Kleene::And(a, b)),
                Kleene::Or(Kleene::Not(a), Kleene::Not(b)));
      EXPECT_EQ(Kleene::Not(Kleene::Or(a, b)),
                Kleene::And(Kleene::Not(a), Kleene::Not(b)));
    }
  }
}

TEST(KleeneLawsTest, ExcludedMiddleFailsOnU) {
  // u ∨ ¬u = u — the reason the tautology query misbehaves in SQL.
  EXPECT_EQ(Kleene::Or(TV3::kU, Kleene::Not(TV3::kU)), TV3::kU);
}

// --- L6v laws (exhaustive on the derived tables) --------------------------------

TEST(SixLawsTest, CommutativityAndDeMorgan) {
  for (TV6 a : kAll6) {
    EXPECT_EQ(Six::Not(Six::Not(a)), a);
    for (TV6 b : kAll6) {
      EXPECT_EQ(Six::And(a, b), Six::And(b, a));
      EXPECT_EQ(Six::Or(a, b), Six::Or(b, a));
      EXPECT_EQ(Six::Not(Six::And(a, b)),
                Six::Or(Six::Not(a), Six::Not(b)));
    }
  }
}

TEST(SixLawsTest, ConnectivesRespectKnowledgeOrder) {
  // The §5.1 condition (2) for L6v — the property that guarantees
  // almost-certainly-true answers, which ↑ (not part of L6v) breaks.
  for (TV6 a : kAll6) {
    for (TV6 a2 : kAll6) {
      if (!KnowledgeLeq(a, a2)) continue;
      EXPECT_TRUE(KnowledgeLeq(Six::Not(a), Six::Not(a2)))
          << ToString(a) << " " << ToString(a2);
      for (TV6 b : kAll6) {
        for (TV6 b2 : kAll6) {
          if (!KnowledgeLeq(b, b2)) continue;
          EXPECT_TRUE(KnowledgeLeq(Six::And(a, b), Six::And(a2, b2)));
          EXPECT_TRUE(KnowledgeLeq(Six::Or(a, b), Six::Or(a2, b2)));
        }
      }
    }
  }
}

// --- Condition algebra (randomized) ----------------------------------------------

class CondProperty : public ::testing::TestWithParam<int> {
 protected:
  std::vector<std::string> attrs_{"a", "b", "c"};

  CondPtr RandomCond(std::mt19937_64& rng, int depth) {
    std::uniform_int_distribution<int> pick(0, depth > 0 ? 7 : 5);
    switch (pick(rng)) {
      case 0:
        return CEq("a", "b");
      case 1:
        return CNeq("b", "c");
      case 2:
        return CEqc("a", Value::Int(static_cast<int64_t>(rng() % 3)));
      case 3:
        return CNeqc("c", Value::Int(static_cast<int64_t>(rng() % 3)));
      case 4:
        return CIsNull("b");
      case 5:
        return CIsConst("a");
      case 6:
        return CAnd(RandomCond(rng, depth - 1), RandomCond(rng, depth - 1));
      default:
        return COr(RandomCond(rng, depth - 1), RandomCond(rng, depth - 1));
    }
  }

  Tuple RandomTuple(std::mt19937_64& rng) {
    auto value = [&]() -> Value {
      uint64_t v = rng() % 5;
      return v < 3 ? Value::Int(static_cast<int64_t>(v))
                   : Value::Null(v - 3);
    };
    return Tuple{value(), value(), value()};
  }
};

TEST_P(CondProperty, NegateIsKleeneNegation) {
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    CondPtr c = RandomCond(rng, 3);
    Tuple t = RandomTuple(rng);
    for (CondMode mode :
         {CondMode::kNaive, CondMode::kSql, CondMode::kUnif}) {
      auto f = testing_util::ProgramTruth(c, attrs_, t, mode);
      auto nf = testing_util::ProgramTruth(Negate(c), attrs_, t, mode);
      ASSERT_TRUE(f.ok() && nf.ok());
      EXPECT_EQ(*nf, Kleene::Not(*f))
          << c->ToString() << " on " << t.ToString();
    }
  }
}

TEST_P(CondProperty, StarTranslationGuardsAllValuations) {
  // If θ* holds naively on t̄, then θ holds classically on v(t̄) for every
  // valuation v — the soundness core of the Fig. 2 σ-rules.
  std::mt19937_64 rng(GetParam() + 500);
  std::vector<Value> pool = {Value::Int(0), Value::Int(1), Value::Int(2),
                             Value::Int(7), Value::Int(8)};
  for (int i = 0; i < 100; ++i) {
    // θ over the =/≠ fragment only (the paper's source grammar).
    CondPtr c;
    do {
      c = RandomCond(rng, 2);
    } while (HasNullConstTest(c));
    Tuple t = RandomTuple(rng);
    auto star = testing_util::ProgramTruth(StarTranslate(c), attrs_, t,
                                           CondMode::kNaive);
    ASSERT_TRUE(star.ok());
    if (*star != TV3::kT) continue;
    // Collect t's nulls and enumerate valuations.
    std::vector<uint64_t> nulls;
    for (const Value& v : t.values()) {
      if (v.is_null()) nulls.push_back(v.null_id());
    }
    std::sort(nulls.begin(), nulls.end());
    nulls.erase(std::unique(nulls.begin(), nulls.end()), nulls.end());
    Status st = ForEachValuation(nulls, pool, 100000, [&](const Valuation& v) {
      auto plain = testing_util::ProgramTruth(c, attrs_, v.Apply(t),
                                              CondMode::kNaive);
      EXPECT_TRUE(plain.ok() && *plain == TV3::kT)
          << c->ToString() << " tuple " << t.ToString() << " val "
          << v.ToString();
      return !::testing::Test::HasFailure();
    });
    ASSERT_TRUE(st.ok());
    if (::testing::Test::HasFailure()) return;
  }
}

// The columnar program against the reference interpreter, on random
// conditions over every atom kind under every mode. Each window of 1, 3 or
// 256 rows broadcasts one side at stride 0 — column a, or columns b and c —
// and holds the other as contiguous runs, the shape in which the binary
// operators pin an outer row against a window of candidate partners.
TEST_P(CondProperty, ProgramMatchesReferenceInterpreterOverWindows) {
  std::mt19937_64 rng(GetParam() + 900);
  auto value = [&]() -> Value {
    const uint64_t v = rng() % 7;
    if (v < 4) return Value::Int(static_cast<int64_t>(v));
    return v == 4 ? Value::Double(1.5) : Value::Null(v - 5);
  };
  std::function<CondPtr(int)> cond = [&](int depth) -> CondPtr {
    const std::string& a = attrs_[rng() % 3];
    const std::string& b = attrs_[rng() % 3];
    const Value k = rng() % 4 == 0 ? Value::Double(1.5)
                                   : Value::Int(static_cast<int64_t>(rng() % 3));
    switch (rng() % (depth > 0 ? 16 : 14)) {
      case 0:
        return CTrue();
      case 1:
        return CFalse();
      case 2:
        return CEq(a, b);
      case 3:
        return CNeq(a, b);
      case 4:
        return CEqc(a, k);
      case 5:
        return CNeqc(a, k);
      case 6:
        return CIsConst(a);
      case 7:
        return CIsNull(a);
      case 8:
        return CLt(a, b);
      case 9:
        return CLe(a, b);
      case 10:
        return CLtc(a, k);
      case 11:
        return CLec(a, k);
      case 12:
        return CGtc(a, k);
      case 13:
        return CGec(a, k);
      case 14:
        return CAnd(cond(depth - 1), cond(depth - 1));
      default:
        return COr(cond(depth - 1), cond(depth - 1));
    }
  };
  BatchPredicate::Scratch scratch;
  for (int i = 0; i < 150; ++i) {
    const CondPtr c = cond(3);
    const bool outer_a = i % 2 == 0;
    for (size_t rows : {size_t{1}, size_t{3}, size_t{256}}) {
      // Column j holds rows values, or one when it is broadcast.
      std::vector<std::vector<Value>> cols(3);
      Batch batch;
      batch.Reset(3, rows);
      for (size_t j = 0; j < 3; ++j) {
        const bool broadcast = (j == 0) == outer_a;
        cols[j].resize(broadcast ? 1 : rows);
        for (Value& v : cols[j]) v = value();
        batch.cols[j] = BatchColumn{cols[j].data(), broadcast ? 0u : 1u};
      }
      for (CondMode mode :
           {CondMode::kNaive, CondMode::kSql, CondMode::kUnif}) {
        auto prog = BatchPredicate::Make(c, attrs_, mode);
        ASSERT_TRUE(prog.ok()) << prog.status().ToString();
        std::vector<uint8_t> got(rows);
        prog->EvalTruth(batch, &scratch, got.data());
        for (size_t r = 0; r < rows; ++r) {
          const Tuple t{batch.cols[0].At(r), batch.cols[1].At(r),
                        batch.cols[2].At(r)};
          ASSERT_EQ(static_cast<TV3>(got[r]),
                    testing_util::RefCondTruth(c, attrs_, t, mode))
              << c->ToString() << " on " << t.ToString() << ", mode "
              << static_cast<int>(mode) << ", row " << r << " of " << rows;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CondProperty, ::testing::Values(1, 2, 3, 4));

// --- Unifiability as an existential statement -------------------------------------

class UnifProperty : public ::testing::TestWithParam<int> {};

TEST_P(UnifProperty, UnifiableIffSomeValuationEquates) {
  std::mt19937_64 rng(GetParam());
  auto value = [&]() -> Value {
    uint64_t v = rng() % 6;
    return v < 3 ? Value::Int(static_cast<int64_t>(v)) : Value::Null(v - 3);
  };
  std::vector<Value> pool = {Value::Int(0), Value::Int(1), Value::Int(2),
                             Value::Int(10), Value::Int(11), Value::Int(12)};
  for (int i = 0; i < 150; ++i) {
    Tuple a{value(), value(), value()};
    Tuple b{value(), value(), value()};
    EXPECT_EQ(Unifiable(a, b), Unifiable(b, a));
    EXPECT_TRUE(Unifiable(a, a));
    std::vector<uint64_t> nulls;
    for (const Tuple* t : {&a, &b}) {
      for (const Value& v : t->values()) {
        if (v.is_null()) nulls.push_back(v.null_id());
      }
    }
    std::sort(nulls.begin(), nulls.end());
    nulls.erase(std::unique(nulls.begin(), nulls.end()), nulls.end());
    bool witnessed = false;
    Status st = ForEachValuation(nulls, pool, 1000000,
                                 [&](const Valuation& v) {
                                   if (v.Apply(a) == v.Apply(b)) {
                                     witnessed = true;
                                     return false;
                                   }
                                   return true;
                                 });
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(Unifiable(a, b), witnessed)
        << a.ToString() << " vs " << b.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnifProperty, ::testing::Values(1, 2, 3));

// --- Bag algebra identities ---------------------------------------------------------

class BagLawsProperty : public ::testing::TestWithParam<int> {};

TEST_P(BagLawsProperty, StandardIdentities) {
  std::mt19937_64 rng(GetParam());
  Database db = testing_util::RandomDatabase(rng, 4, 3, 2);
  // Make the relations genuine bags.
  for (const char* name : {"R", "S"}) {
    Relation rel = db.at(name);
    for (const Tuple& t : rel.SortedTuples()) {
      if (rng() % 2) {
        Status st = rel.Insert(t, rng() % 3);
        ASSERT_TRUE(st.ok());
      }
    }
    db.Put(name, rel);
  }
  AlgPtr r = Scan("R");
  AlgPtr s = Rename(Scan("S"), {"R_a", "R_b"});
  AlgPtr t = Rename(Scan("S"), {"R_a", "R_b"});  // alias for S

  // (R − S) − S == R − (S ∪ S) under bag monus.
  auto lhs = EvalBag(Diff(Diff(r, s), t), db);
  auto rhs = EvalBag(Diff(r, Union(s, t)), db);
  ASSERT_TRUE(lhs.ok() && rhs.ok());
  EXPECT_TRUE(lhs->SameRows(*rhs));

  // R ∩ S == R − (R − S) under bags.
  auto inter = EvalBag(Intersect(r, s), db);
  auto diff2 = EvalBag(Diff(r, Diff(r, s)), db);
  ASSERT_TRUE(inter.ok() && diff2.ok());
  EXPECT_TRUE(inter->SameRows(*diff2));

  // Union is commutative and associative on multiplicities.
  auto u1 = EvalBag(Union(r, s), db);
  auto u2 = EvalBag(Union(s, r), db);
  ASSERT_TRUE(u1.ok() && u2.ok());
  EXPECT_TRUE(u1->SameRows(*u2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BagLawsProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- Evaluator fast paths are semantics-preserving ----------------------------------

class FastPathProperty : public ::testing::TestWithParam<int> {};

TEST_P(FastPathProperty, TogglesNeverChangeAnswers) {
  std::mt19937_64 rng(GetParam());
  Database db = testing_util::RandomDatabase(rng, 4, 3, 2);
  EvalOptions plain;
  plain.enable_hash_join = false;
  plain.enable_or_expansion = false;
  plain.enable_projection_fusion = false;
  plain.enable_unify_index = false;
  for (const AlgPtr& q : testing_util::QueryZoo()) {
    using EvalFn = StatusOr<Relation> (*)(const AlgPtr&, const Database&,
                                          const EvalOptions&);
    for (EvalFn eval : {EvalFn(EvalSet), EvalFn(EvalSql)}) {
      auto fast = eval(q, db, EvalOptions{});
      auto slow = eval(q, db, plain);
      ASSERT_TRUE(fast.ok() && slow.ok()) << q->ToString();
      EXPECT_TRUE(fast->SameRows(*slow)) << q->ToString();
    }
    auto fast_bag = EvalBag(q, db, EvalOptions{});
    auto slow_bag = EvalBag(q, db, plain);
    ASSERT_TRUE(fast_bag.ok() && slow_bag.ok());
    EXPECT_TRUE(fast_bag->SameRows(*slow_bag)) << q->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastPathProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- Certain answers: brute-force possible worlds vs the lifted evaluator -----

/// Constant pool for the brute force, built without FamilyConstants: every
/// constant in the database or the query, plus n+1 fresh integers chosen
/// past the largest int seen (n = number of distinct nulls). Genericity of
/// the zoo queries makes this pool sufficient: any valuation is isomorphic
/// to one over it.
std::vector<Value> BruteForcePool(const Database& db, const AlgPtr& q) {
  std::vector<Value> pool;
  int64_t max_int = 0;
  auto add = [&](const Value& v) {
    if (!v.is_const()) return;
    if (v.kind() == ValueKind::kInt && v.as_int() > max_int) {
      max_int = v.as_int();
    }
    if (std::find(pool.begin(), pool.end(), v) == pool.end()) {
      pool.push_back(v);
    }
  };
  for (const auto& [name, rel] : db.relations()) {
    for (const auto& [t, c] : rel.rows()) {
      for (const Value& v : t.values()) add(v);
    }
  }
  for (const Value& v : QueryConstants(q)) add(v);
  size_t n_nulls = db.NullIds().size();
  for (size_t i = 0; i <= n_nulls; ++i) {
    pool.push_back(Value::Int(max_int + 1 + static_cast<int64_t>(i)));
  }
  return pool;
}

/// cert⊥ computed from first principles, independently of the production
/// machinery in src/certain: candidates are the naive answers (a bijective
/// valuation onto fresh constants witnesses that a certain tuple must be
/// one), and a candidate t̄ survives iff v(t̄) ∈ Q(v(D)) in every possible
/// world v(D), enumerating all pool^nulls valuations by hand — not via
/// FamilyConstants/ForEachValuation, which are exactly what CertWithNulls
/// uses and what this oracle cross-checks.
StatusOr<Relation> BruteForceCertWithNulls(const AlgPtr& q,
                                           const Database& db) {
  auto naive = EvalSet(q, db);
  if (!naive.ok()) return naive;
  std::vector<Value> pool = BruteForcePool(db, q);
  std::set<uint64_t> null_set = db.NullIds();
  std::vector<uint64_t> nulls(null_set.begin(), null_set.end());
  Relation out(naive->attrs());
  for (const Tuple& t : naive->SortedTuples()) {
    bool certain = true;
    // Odometer over assignments nulls -> pool.
    std::vector<size_t> digits(nulls.size(), 0);
    while (certain) {
      Valuation v;
      for (size_t i = 0; i < nulls.size(); ++i) {
        v.Set(nulls[i], pool[digits[i]]);
      }
      auto world = EvalSet(q, v.ApplySet(db));
      if (!world.ok()) return world.status();
      if (!world->Contains(v.Apply(t))) certain = false;
      size_t pos = 0;
      while (pos < digits.size() && ++digits[pos] == pool.size()) {
        digits[pos++] = 0;
      }
      if (pos == digits.size()) break;  // odometer wrapped: all worlds seen
    }
    if (certain) {
      Status st = out.Insert(t);
      if (!st.ok()) return st;
    }
  }
  return out;
}

class CertainRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(CertainRoundTripProperty, BruteForceAgreesWithLiftedEvaluator) {
  // Seeded so CI is deterministic: 20 RandomDatabase instances per seed,
  // every QueryZoo query on each.
  std::mt19937_64 rng(1000 + GetParam());
  for (int round = 0; round < 20; ++round) {
    // Keep the instances small: the brute force enumerates
    // |constants|^|nulls| possible worlds per candidate tuple.
    Database db = testing_util::RandomDatabase(rng, /*tuples_per_rel=*/3,
                                               /*n_constants=*/2,
                                               /*n_nulls=*/2);
    for (const AlgPtr& q : testing_util::QueryZoo()) {
      auto brute = BruteForceCertWithNulls(q, db);
      auto lifted = CertWithNulls(q, db);
      ASSERT_TRUE(brute.ok()) << q->ToString() << ": "
                              << brute.status().ToString();
      ASSERT_TRUE(lifted.ok()) << q->ToString() << ": "
                               << lifted.status().ToString();
      EXPECT_TRUE(brute->SameRows(*lifted))
          << q->ToString() << " on round " << round << ": brute "
          << brute->ToString() << " vs lifted " << lifted->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CertainRoundTripProperty,
                         ::testing::Values(1, 2));

}  // namespace
}  // namespace incdb
