// Unit tests for src/core: values, tuples, unifiability, relations,
// databases, valuations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/intern.h"
#include "core/key_index.h"
#include "core/relation.h"
#include "core/row_index.h"
#include "core/status.h"
#include "core/tuple.h"
#include "core/valuation.h"
#include "core/value.h"

namespace incdb {
namespace {

TEST(ValueTest, KindsAndAccessors) {
  Value i = Value::Int(42);
  Value d = Value::Double(3.5);
  Value s = Value::String("abc");
  Value n = Value::Null(7);

  EXPECT_TRUE(i.is_const());
  EXPECT_TRUE(d.is_const());
  EXPECT_TRUE(s.is_const());
  EXPECT_TRUE(n.is_null());
  EXPECT_EQ(i.as_int(), 42);
  EXPECT_DOUBLE_EQ(d.as_double(), 3.5);
  EXPECT_EQ(s.as_string(), "abc");
  EXPECT_EQ(n.null_id(), 7u);
}

TEST(ValueTest, SyntacticEquality) {
  EXPECT_EQ(Value::Int(1), Value::Int(1));
  EXPECT_NE(Value::Int(1), Value::Int(2));
  // Typed constants: Int(1) and String("1") are different constants.
  EXPECT_NE(Value::Int(1), Value::String("1"));
  // Marked nulls: identical iff same id; a null never equals a constant.
  EXPECT_EQ(Value::Null(1), Value::Null(1));
  EXPECT_NE(Value::Null(1), Value::Null(2));
  EXPECT_NE(Value::Null(1), Value::Int(1));
}

TEST(ValueTest, TotalOrderIsDeterministic) {
  std::vector<Value> vals = {Value::String("b"), Value::Int(2), Value::Null(1),
                             Value::Int(1), Value::String("a"),
                             Value::Double(0.5), Value::Null(0)};
  std::sort(vals.begin(), vals.end());
  // Nulls sort before ints before doubles before strings (by kind).
  EXPECT_EQ(vals[0], Value::Null(0));
  EXPECT_EQ(vals[1], Value::Null(1));
  EXPECT_EQ(vals[2], Value::Int(1));
  EXPECT_EQ(vals[3], Value::Int(2));
  EXPECT_EQ(vals[4], Value::Double(0.5));
  EXPECT_EQ(vals[5], Value::String("a"));
  EXPECT_EQ(vals[6], Value::String("b"));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Null(3).Hash(), Value::Null(3).Hash());
  EXPECT_EQ(Value::String("xy").Hash(), Value::String("xy").Hash());
  // Null id 3 and Int 3 must not collide by construction of the kind salt.
  EXPECT_NE(Value::Null(3).Hash(), Value::Int(3).Hash());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Int(5).ToString(), "5");
  EXPECT_EQ(Value::String("x").ToString(), "'x'");
  EXPECT_EQ(Value::Null(2).ToString(), "⊥2");
  EXPECT_EQ(Value::Double(3.5).ToString(), "3.5");
}

// --- Compact layout (interned strings, trivially copyable Value) -----------

TEST(ValueLayoutTest, TriviallyCopyableAndCompact) {
  static_assert(std::is_trivially_copyable_v<Value>);
  static_assert(sizeof(Value) <= 16);
  EXPECT_TRUE(std::is_trivially_copyable_v<Value>);
  EXPECT_LE(sizeof(Value), 16u);
}

TEST(ValueLayoutTest, InternIdAgreesWithStringEquality) {
  Value a = Value::String("intern-me");
  Value b = Value::String(std::string("intern") + "-me");  // separate buffer
  Value c = Value::String("intern-you");
  // Same contents → same pool id → equal; different contents → different id.
  EXPECT_EQ(a.string_id(), b.string_id());
  EXPECT_EQ(a, b);
  EXPECT_NE(a.string_id(), c.string_id());
  EXPECT_NE(a, c);
  // The pool hands back the contents by reference, and both values share it.
  EXPECT_EQ(a.as_string(), "intern-me");
  EXPECT_EQ(&a.as_string(), &b.as_string());
  EXPECT_EQ(StringPool::Get(a.string_id()), "intern-me");
}

TEST(ValueLayoutTest, BehaviourUnchangedAcrossKinds) {
  // Pairs of equal and unequal values of every kind: hash must agree with
  // equality, operator< must order by kind then payload (strings by
  // content, not by intern id), and ToString must render the payload.
  const Value eq_pairs[][2] = {
      {Value::Null(9), Value::Null(9)},
      {Value::Int(-4), Value::Int(-4)},
      {Value::Double(2.25), Value::Double(2.25)},
      {Value::String("zz"), Value::String("zz")},
  };
  for (const auto& pair : eq_pairs) {
    EXPECT_EQ(pair[0], pair[1]);
    EXPECT_EQ(pair[0].Hash(), pair[1].Hash());
    EXPECT_FALSE(pair[0] < pair[1]);
    EXPECT_FALSE(pair[1] < pair[0]);
    EXPECT_EQ(pair[0].ToString(), pair[1].ToString());
  }
  // Content order for strings even when intern order differs: interning
  // "b-late" after "a-late" must not make it sort first.
  Value late_b = Value::String("layout-b");
  Value late_a = Value::String("layout-a");
  EXPECT_LT(late_a, late_b);
  EXPECT_FALSE(late_b < late_a);
  // Payload order within the other kinds.
  EXPECT_LT(Value::Int(-1), Value::Int(3));
  EXPECT_LT(Value::Double(0.5), Value::Double(1.5));
  EXPECT_LT(Value::Null(1), Value::Null(2));
  // Kind order: null < int < double < string.
  EXPECT_LT(Value::Null(99), Value::Int(-100));
  EXPECT_LT(Value::Int(100), Value::Double(-5.0));
  EXPECT_LT(Value::Double(1e9), Value::String("a"));
}

TEST(TupleLayoutTest, CachedHashSurvivesCopyAndMove) {
  Tuple t{Value::Int(1), Value::String("h"), Value::Null(2)};
  size_t h = t.Hash();
  Tuple copy = t;
  EXPECT_EQ(copy.Hash(), h);
  Tuple moved = std::move(copy);
  EXPECT_EQ(moved.Hash(), h);
  EXPECT_EQ(moved, t);
}

TEST(TupleLayoutTest, CachedHashConsistentAfterAppend) {
  Tuple t{Value::Int(1)};
  size_t h1 = t.Hash();
  t.Append(Value::Int(2));
  // The cache must be invalidated: the hash now matches a fresh tuple with
  // the same contents, not the stale one-component hash.
  Tuple fresh{Value::Int(1), Value::Int(2)};
  EXPECT_EQ(t.Hash(), fresh.Hash());
  EXPECT_EQ(t, fresh);
  EXPECT_NE(t.Hash(), h1);
}

TEST(TupleLayoutTest, CachedHashConsistentAfterMutation) {
  Tuple t{Value::Int(1), Value::Int(2)};
  (void)t.Hash();  // populate the cache
  t[1] = Value::Int(7);  // mutable operator[] must invalidate it
  EXPECT_EQ(t.Hash(), (Tuple{Value::Int(1), Value::Int(7)}).Hash());
  t.Set(0, Value::Null(4));  // Set() likewise
  EXPECT_EQ(t.Hash(), (Tuple{Value::Null(4), Value::Int(7)}).Hash());
  EXPECT_EQ(t, (Tuple{Value::Null(4), Value::Int(7)}));
}

TEST(TupleLayoutTest, AssignConcatProjectMatchAllocatingForms) {
  Tuple a{Value::Int(1), Value::String("s")};
  Tuple b{Value::Null(3)};
  Tuple scratch;
  scratch.AssignConcat(a, b);
  EXPECT_EQ(scratch, a.Concat(b));
  EXPECT_EQ(scratch.Hash(), a.Concat(b).Hash());
  Tuple proj;
  proj.AssignProject(scratch, {2, 0});
  EXPECT_EQ(proj, scratch.Project({2, 0}));
  // Reuse the same scratch tuples with different shapes.
  scratch.AssignConcat(b, b);
  EXPECT_EQ(scratch, b.Concat(b));
}

TEST(TupleTest, ConcatAndProject) {
  Tuple a{Value::Int(1), Value::Int(2)};
  Tuple b{Value::Int(3)};
  Tuple c = a.Concat(b);
  EXPECT_EQ(c.arity(), 3u);
  EXPECT_EQ(c[2], Value::Int(3));
  Tuple p = c.Project({2, 0});
  EXPECT_EQ(p, (Tuple{Value::Int(3), Value::Int(1)}));
}

TEST(TupleTest, AllConst) {
  EXPECT_TRUE((Tuple{Value::Int(1), Value::String("a")}).AllConst());
  EXPECT_FALSE((Tuple{Value::Int(1), Value::Null(0)}).AllConst());
  EXPECT_TRUE(Tuple{}.AllConst());
}

// --- Unifiability (r̄ ⇑ s̄), the basis of ⋉⇑ and ⟦·⟧unif -------------------

TEST(UnifiableTest, ConstantsMustMatch) {
  EXPECT_TRUE(Unifiable(Tuple{Value::Int(1)}, Tuple{Value::Int(1)}));
  EXPECT_FALSE(Unifiable(Tuple{Value::Int(1)}, Tuple{Value::Int(2)}));
}

TEST(UnifiableTest, NullMatchesAnything) {
  EXPECT_TRUE(Unifiable(Tuple{Value::Null(1)}, Tuple{Value::Int(5)}));
  EXPECT_TRUE(Unifiable(Tuple{Value::Null(1)}, Tuple{Value::Null(2)}));
}

TEST(UnifiableTest, RepeatedMarkedNullConstraints) {
  // (⊥1, ⊥1) unifies with (1, 1) but not with (1, 2).
  Tuple r{Value::Null(1), Value::Null(1)};
  EXPECT_TRUE(Unifiable(r, Tuple{Value::Int(1), Value::Int(1)}));
  EXPECT_FALSE(Unifiable(r, Tuple{Value::Int(1), Value::Int(2)}));
}

TEST(UnifiableTest, TransitiveNullChains) {
  // (⊥1, ⊥1, ⊥2) vs (⊥3, 7, ⊥3): ⊥1~⊥3, ⊥1~7 → ⊥3~7, ⊥2~⊥3 fine.
  Tuple a{Value::Null(1), Value::Null(1), Value::Null(2)};
  Tuple b{Value::Null(3), Value::Int(7), Value::Null(3)};
  EXPECT_TRUE(Unifiable(a, b));
  // (⊥1, ⊥1, 8) vs (⊥3, 7, ⊥3): chain forces 7 = 8 → fail.
  Tuple c{Value::Null(1), Value::Null(1), Value::Int(8)};
  EXPECT_FALSE(Unifiable(c, b));
}

TEST(UnifiableTest, ArityMismatchNeverUnifies) {
  EXPECT_FALSE(Unifiable(Tuple{Value::Null(1)}, Tuple{}));
}

TEST(UnifiableTest, CrossTupleSharedNulls) {
  // The same marked null on both sides is one variable: (⊥1, 1) ⇑ (2, ⊥1)
  // forces ⊥1 = 2 and ⊥1 = 1 → fail.
  Tuple a{Value::Null(1), Value::Int(1)};
  Tuple b{Value::Int(2), Value::Null(1)};
  EXPECT_FALSE(Unifiable(a, b));
  // (⊥1, 1) ⇑ (1, ⊥1) forces ⊥1 = 1 twice → ok.
  Tuple c{Value::Int(1), Value::Null(1)};
  EXPECT_TRUE(Unifiable(a, c));
}

// --- Relation --------------------------------------------------------------

TEST(RelationTest, InsertCountAndMultiplicity) {
  Relation r({"a", "b"});
  r.Add({Value::Int(1), Value::Int(2)});
  r.Add({Value::Int(1), Value::Int(2)}, 2);
  r.Add({Value::Int(3), Value::Null(0)});
  EXPECT_EQ(r.Count(Tuple{Value::Int(1), Value::Int(2)}), 3u);
  EXPECT_EQ(r.DistinctSize(), 2u);
  EXPECT_EQ(r.TotalSize(), 4u);
  EXPECT_FALSE(r.IsSet());
  Relation s = r.ToSet();
  EXPECT_TRUE(s.IsSet());
  EXPECT_EQ(s.TotalSize(), 2u);
}

// IsSet reads a count of the rows whose multiplicity is above 1, which
// every mutator keeps: each count transition in and out of "above 1".
TEST(RelationTest, IsSetFollowsEveryCountTransition) {
  const Tuple a{Value::Int(1)};
  const Tuple b{Value::Int(2)};
  Relation r({"x"});
  EXPECT_TRUE(r.IsSet());
  ASSERT_TRUE(r.Insert(a).ok());
  EXPECT_TRUE(r.IsSet());
  ASSERT_TRUE(r.Insert(a).ok());  // 1 → 2
  EXPECT_FALSE(r.IsSet());
  ASSERT_TRUE(r.Erase(a).ok());  // 2 → 1
  EXPECT_TRUE(r.IsSet());
  ASSERT_TRUE(r.InsertUnique(b, 2).ok());  // a new row at 2
  EXPECT_FALSE(r.IsSet());
  ASSERT_TRUE(r.Insert(a, 2).ok());  // 1 → 3: two rows above 1
  ASSERT_TRUE(r.Erase(b, 2).ok());   // 2 → 0
  EXPECT_FALSE(r.IsSet());
  ASSERT_TRUE(r.Erase(a, 2).ok());  // 3 → 1
  EXPECT_TRUE(r.IsSet());
  ASSERT_TRUE(r.Insert(b, 3).ok());
  ASSERT_TRUE(r.Insert(a, 4).ok());
  EXPECT_FALSE(r.IsSet());
  r.CollapseCounts();
  EXPECT_TRUE(r.IsSet());
  ASSERT_TRUE(r.Insert(b).ok());  // collapsed to 1, then 1 → 2
  EXPECT_FALSE(r.IsSet());
  EXPECT_TRUE(r.ToSet().IsSet());
  Relation copy = r;
  EXPECT_FALSE(copy.IsSet());
}

TEST(RelationTest, ArityMismatchRejected) {
  Relation r({"a"});
  Status st = r.Insert(Tuple{Value::Int(1), Value::Int(2)});
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(RelationTest, AttrIndexLookup) {
  Relation r({"x", "y"});
  ASSERT_TRUE(r.AttrIndex("y").ok());
  EXPECT_EQ(r.AttrIndex("y").value(), 1u);
  EXPECT_EQ(r.AttrIndex("z").status().code(), StatusCode::kNotFound);
}

TEST(RelationTest, SubBagOf) {
  Relation a({"x"}), b({"x"});
  a.Add({Value::Int(1)}, 2);
  b.Add({Value::Int(1)}, 3);
  b.Add({Value::Int(2)});
  EXPECT_TRUE(a.SubBagOf(b));
  EXPECT_FALSE(b.SubBagOf(a));
}

TEST(RelationTest, SortedTuplesDeterministic) {
  Relation r({"x"});
  r.Add({Value::Int(3)});
  r.Add({Value::Int(1)});
  r.Add({Value::Null(0)});
  auto ts = r.SortedTuples();
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts[0], Tuple{Value::Null(0)});
  EXPECT_EQ(ts[1], Tuple{Value::Int(1)});
  EXPECT_EQ(ts[2], Tuple{Value::Int(3)});
}

TEST(RelationTest, InsertCountOverflowIsResourceExhausted) {
  Relation r({"x"});
  const Tuple t{Value::Int(1)};
  ASSERT_TRUE(r.Insert(t, UINT64_MAX).ok());
  Status st = r.Insert(t, 2);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  ASSERT_NE(st.detail(), nullptr);
  EXPECT_EQ(st.detail()->site, "relation.insert");
  EXPECT_EQ(r.Count(t), UINT64_MAX);  // the failed insert changed nothing
}

TEST(RelationTest, TotalSizeSaturates) {
  Relation r({"x"});
  r.Add({Value::Int(1)}, uint64_t{1} << 63);
  r.Add({Value::Int(2)}, uint64_t{1} << 63);
  EXPECT_EQ(r.TotalSize(), UINT64_MAX);
}

// Relation against a std::map oracle under a long random mix of every
// mutation. The key domain is small, so the index stays at a few slot-array
// sizes and its probe runs and backward-shift deletions keep wrapping past
// the array's end; the row-order model mirrors Insert's append and Erase's
// move of the last row into the vacated one.
TEST(RelationModelTest, RandomMutationsAgreeWithMapOracle) {
  std::vector<Tuple> domain;
  for (int i = 0; i < 48; ++i) {
    domain.push_back(Tuple{i % 11 == 0 ? Value::Null(i % 3) : Value::Int(i % 8),
                           Value::Int(i / 8)});
  }
  std::mt19937_64 rng(17);
  Relation rel({"a", "b"});
  std::map<Tuple, uint64_t> counts;
  std::vector<Tuple> order;
  for (int step = 0; step < 12000; ++step) {
    const Tuple& t = domain[rng() % domain.size()];
    const uint64_t c = 1 + rng() % 3;
    const bool present = counts.count(t) > 0;
    switch (rng() % 8) {
      case 0:
      case 1:
        ASSERT_TRUE(rel.Insert(t, c).ok());
        if (!present) order.push_back(t);
        counts[t] += c;
        break;
      case 2:
        if (present) continue;
        ASSERT_TRUE(rel.InsertUnique(Tuple(t), c).ok());
        order.push_back(t);
        counts[t] = c;
        break;
      case 3:
      case 4:
      case 5: {
        // Mostly whole-count erases, so rows keep leaving.
        const uint64_t n = present && rng() % 4 != 0 ? counts[t] : c;
        Status st = rel.Erase(t, n);
        if (!present) {
          ASSERT_EQ(st.code(), StatusCode::kNotFound);
        } else if (n > counts[t]) {
          ASSERT_EQ(st.code(), StatusCode::kInvalidArgument);
        } else {
          ASSERT_TRUE(st.ok()) << st.ToString();
          if ((counts[t] -= n) == 0) {
            counts.erase(t);
            auto it = std::find(order.begin(), order.end(), t);
            *it = order.back();
            order.pop_back();
          }
        }
        break;
      }
      case 6:
        rel.Reserve(rng() % 64);
        break;
      case 7: {
        Relation copy = rel;
        ASSERT_TRUE(copy.IdenticalTo(rel));
        Relation set = rel.ToSet();
        ASSERT_EQ(set.DistinctSize(), rel.DistinctSize());
        for (size_t i = 0; i < set.rows().size(); ++i) {
          ASSERT_EQ(set.rows()[i].first, rel.rows()[i].first);
          ASSERT_EQ(set.Count(rel.rows()[i].first), 1u);
        }
        rel = std::move(copy);  // go on mutating through the copied index
        break;
      }
    }
    Relation expect({"a", "b"});
    for (const Tuple& o : order) {
      ASSERT_TRUE(expect.InsertUnique(o, counts[o]).ok());
    }
    ASSERT_TRUE(rel.IdenticalTo(expect)) << "step " << step;
    ASSERT_EQ(rel.IsSet(), std::all_of(counts.begin(), counts.end(),
                                       [](const auto& e) {
                                         return e.second == 1;
                                       }))
        << "step " << step;
    for (const Tuple& d : domain) {
      auto it = counts.find(d);
      ASSERT_EQ(rel.Count(d), it == counts.end() ? 0 : it->second)
          << "step " << step << " key " << d.ToString();
    }
  }
}

// --- Database --------------------------------------------------------------

Database FigureOneDb() {
  // The Orders / Payments / Customers database of paper Figure 1.
  Database db;
  Relation orders({"oid", "title", "price"});
  orders.Add({Value::String("o1"), Value::String("Big Data"), Value::Int(30)});
  orders.Add({Value::String("o2"), Value::String("SQL"), Value::Int(35)});
  orders.Add({Value::String("o3"), Value::String("Logic"), Value::Int(50)});
  Relation payments({"cid", "oid"});
  payments.Add({Value::String("c1"), Value::String("o1")});
  payments.Add({Value::String("c2"), Value::String("o2")});
  Relation customers({"cid", "name"});
  customers.Add({Value::String("c1"), Value::String("John")});
  customers.Add({Value::String("c2"), Value::String("Mary")});
  db.Put("Orders", std::move(orders));
  db.Put("Payments", std::move(payments));
  db.Put("Customers", std::move(customers));
  return db;
}

TEST(DatabaseTest, ConstantsNullsActiveDomain) {
  Database db = FigureOneDb();
  EXPECT_TRUE(db.IsComplete());
  EXPECT_EQ(db.NullIds().size(), 0u);
  EXPECT_EQ(db.TotalSize(), 7u);

  // Introduce the paper's NULL into Payments.
  Relation* p = db.mutable_at("Payments");
  Relation p2({"cid", "oid"});
  p2.Add({Value::String("c1"), Value::String("o1")});
  p2.Add({Value::String("c2"), Value::Null(1)});
  *p = p2;
  EXPECT_FALSE(db.IsComplete());
  EXPECT_EQ(db.NullIds(), std::set<uint64_t>{1});
  EXPECT_EQ(db.ActiveDomain().size(), db.Constants().size() + 1);
}

TEST(DatabaseTest, GetMissingRelation) {
  Database db;
  EXPECT_EQ(db.Get("R").status().code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, CoddifyMakesNullsDistinct) {
  Database db;
  Relation r({"a", "b"});
  r.Add({Value::Null(0), Value::Null(0)});
  r.Add({Value::Null(0), Value::Int(1)});
  db.Put("R", std::move(r));
  Database codd = db.CoddifyNulls(100);
  // Three null occurrences → three distinct ids.
  EXPECT_EQ(codd.NullIds().size(), 3u);
  EXPECT_EQ(codd.at("R").TotalSize(), 2u);
}

// --- Snapshot versioning ----------------------------------------------------

Relation OneInt(const std::string& attr, int64_t v) {
  Relation r({attr});
  r.Add({Value::Int(v)});
  return r;
}

TEST(DatabaseVersionTest, StampsAreFreshPerMutationAndZeroWhenAbsent) {
  Database db;
  EXPECT_EQ(db.Version("R"), 0u);
  EXPECT_EQ(db.Epoch(), 0u);

  db.Put("R", OneInt("x", 1));
  uint64_t v1 = db.Version("R");
  EXPECT_NE(v1, 0u);
  EXPECT_EQ(db.Epoch(), v1);

  // Replacing with *identical* rows still stamps a new state: stamps
  // fingerprint mutation history, and a fresh stamp can only cause a
  // cache miss, never a wrong hit.
  db.Put("R", OneInt("x", 1));
  uint64_t v2 = db.Version("R");
  EXPECT_NE(v2, v1);
  EXPECT_GT(db.Epoch(), v1);

  db.Put("S", OneInt("y", 2));
  EXPECT_EQ(db.Version("R"), v2) << "mutating S must not restamp R";

  ASSERT_TRUE(db.Drop("R").ok());
  EXPECT_EQ(db.Version("R"), 0u);
  EXPECT_EQ(db.Drop("R").code(), StatusCode::kNotFound);
}

TEST(DatabaseVersionTest, SnapshotPinsPreMutationState) {
  Database db;
  db.Put("R", OneInt("x", 1));
  Database snap = db.Snapshot();
  uint64_t pinned = snap.Version("R");

  db.Put("R", OneInt("x", 2));
  ASSERT_TRUE(db.Drop("S").code() == StatusCode::kNotFound);

  // The snapshot still sees the old rows and the old stamp.
  EXPECT_TRUE(snap.at("R").Contains(Tuple{Value::Int(1)}));
  EXPECT_EQ(snap.Version("R"), pinned);
  EXPECT_TRUE(db.at("R").Contains(Tuple{Value::Int(2)}));
  EXPECT_NE(db.Version("R"), pinned);

  // Copies behave like snapshots, and mutating the copy never writes back.
  Database copy = db;
  copy.Put("R", OneInt("x", 3));
  EXPECT_TRUE(db.at("R").Contains(Tuple{Value::Int(2)}));

  // mutable_at detaches: a snapshot taken before stays unaffected.
  Database before = db.Snapshot();
  uint64_t v_before = db.Version("R");
  Relation* r = db.mutable_at("R");
  ASSERT_NE(r, nullptr);
  r->Add({Value::Int(9)});
  EXPECT_NE(db.Version("R"), v_before);
  EXPECT_EQ(before.at("R").TotalSize(), 1u);
  EXPECT_EQ(db.at("R").TotalSize(), 2u);
}

// The key indexes built over a relation state live on its entry: every
// snapshot of the state shares them, and each new state of the relation
// starts with none.
TEST(DatabaseVersionTest, KeyIndexMemoLivesWithTheRelationState) {
  Database db;
  db.Put("R", OneInt("x", 1));
  db.Put("S", OneInt("y", 1));
  KeyIndexMemo* memo = db.KeyIndexes("R");
  ASSERT_NE(memo, nullptr);
  auto built = memo->Get({0}, /*skip_nulls=*/false);
  ASSERT_TRUE(built.ok());
  const KeyIndex* index = *built;
  EXPECT_EQ(*memo->Get({0}, false), index) << "built once";
  EXPECT_NE(*memo->Get({0}, true), index) << "keyed by null handling too";

  // A snapshot of the same version shares the memo.
  Database pinned = db.Snapshot();
  EXPECT_EQ(pinned.KeyIndexes("R"), memo);

  // A commit to another relation keeps it.
  Database::Txn other = db.Begin();
  ASSERT_TRUE(other.Insert("S", Tuple{Value::Int(2)}).ok());
  ASSERT_TRUE(db.Commit(std::move(other)).ok());
  EXPECT_EQ(db.KeyIndexes("R"), memo);
  EXPECT_EQ(*db.KeyIndexes("R")->Get({0}, false), index);

  // A commit to the relation itself gives the new state a fresh memo,
  // whose index sees the new row; the snapshot pinned across the commit
  // keeps its own memo and index.
  Database::Txn own = db.Begin();
  ASSERT_TRUE(own.Insert("R", Tuple{Value::Int(2)}).ok());
  ASSERT_TRUE(db.Commit(std::move(own)).ok());
  KeyIndexMemo* committed = db.KeyIndexes("R");
  ASSERT_NE(committed, nullptr);
  EXPECT_NE(committed, memo);
  const KeyIndex* fresh = *committed->Get({0}, false);
  EXPECT_NE(fresh, index);
  EXPECT_NE(fresh->Find(Tuple{Value::Int(2)}, {0}), RowIndex::kEmpty);
  EXPECT_EQ(pinned.KeyIndexes("R"), memo);
  EXPECT_EQ(*pinned.KeyIndexes("R")->Get({0}, false), index);
  EXPECT_EQ(index->Find(Tuple{Value::Int(2)}, {0}), RowIndex::kEmpty);

  // Put and Drop replace it as well.
  Database before_put = db.Snapshot();
  db.Put("R", OneInt("x", 1));
  EXPECT_NE(db.KeyIndexes("R"), nullptr);
  EXPECT_NE(db.KeyIndexes("R"), committed);
  EXPECT_EQ(before_put.KeyIndexes("R"), committed);
  ASSERT_TRUE(db.Drop("R").ok());
  EXPECT_EQ(db.KeyIndexes("R"), nullptr);

  // The state mutable_at hands out may still change: it has no memo.
  ASSERT_NE(db.mutable_at("S"), nullptr);
  EXPECT_EQ(db.KeyIndexes("S"), nullptr);
}

TEST(DatabaseVersionTest, RelationsViewSurvivesSourceMutation) {
  Database db;
  db.Put("R", OneInt("x", 1));
  auto view = db.relations();
  db.Put("R", OneInt("x", 2));
  ASSERT_TRUE(db.Drop("R").ok());
  // The view pinned the instance it was created from.
  ASSERT_EQ(view.size(), 1u);
  for (const auto& [name, rel] : view) {
    EXPECT_EQ(name, "R");
    EXPECT_TRUE(rel.Contains(Tuple{Value::Int(1)}));
  }
}

TEST(DatabaseTxnTest, StagedReadsCommitAtomicallyWithTouched) {
  Database db;
  db.Put("A", OneInt("x", 1));
  db.Put("B", OneInt("y", 1));
  db.Put("C", OneInt("z", 1));
  uint64_t vc = db.Version("C");

  Database::Txn txn = db.Begin();
  txn.Put("A", OneInt("x", 2));
  ASSERT_TRUE(txn.Drop("B").ok());
  EXPECT_EQ(txn.Drop("B").code(), StatusCode::kNotFound)
      << "staged drops are visible to staged reads";
  Relation* a = txn.Mutable("A");
  ASSERT_NE(a, nullptr);
  a->Add({Value::Int(3)});
  EXPECT_EQ(txn.Mutable("B"), nullptr);
  EXPECT_TRUE(txn.Has("C"));

  // Nothing is visible before Commit.
  EXPECT_TRUE(db.at("A").Contains(Tuple{Value::Int(1)}));
  EXPECT_TRUE(db.Has("B"));

  std::vector<std::string> touched = txn.Touched();
  std::sort(touched.begin(), touched.end());
  EXPECT_EQ(touched, (std::vector<std::string>{"A", "B"}));

  ASSERT_TRUE(db.Commit(std::move(txn)).ok());
  EXPECT_TRUE(db.at("A").Contains(Tuple{Value::Int(2)}));
  EXPECT_TRUE(db.at("A").Contains(Tuple{Value::Int(3)}));
  EXPECT_FALSE(db.Has("B"));
  EXPECT_EQ(db.Version("C"), vc) << "untouched relations keep their stamp";

  // An empty transaction is a published no-op.
  uint64_t epoch = db.Epoch();
  ASSERT_TRUE(db.Commit(db.Begin()).ok());
  EXPECT_EQ(db.Epoch(), epoch);
}

// --- Valuation -------------------------------------------------------------

TEST(ValuationTest, ApplyAndIdentityOutsideDomain) {
  Valuation v;
  ASSERT_TRUE(v.Bind(1, Value::Int(9)).ok());
  EXPECT_EQ(v.Apply(Value::Null(1)), Value::Int(9));
  EXPECT_EQ(v.Apply(Value::Null(2)), Value::Null(2));
  EXPECT_EQ(v.Apply(Value::Int(5)), Value::Int(5));
}

TEST(ValuationTest, BindRejectsNullTarget) {
  Valuation v;
  EXPECT_FALSE(v.Bind(1, Value::Null(2)).ok());
}

TEST(ValuationTest, SetVsBagCollapse) {
  // R = {(⊥1), (1)} and v(⊥1) = 1: set semantics collapses to {(1)},
  // bag semantics adds multiplicities to (1)×2 — the two options of [42].
  Relation r({"x"});
  r.Add({Value::Null(1)});
  r.Add({Value::Int(1)});
  Valuation v;
  v.Set(1, Value::Int(1));
  Relation set = v.ApplySet(r);
  EXPECT_EQ(set.TotalSize(), 1u);
  EXPECT_EQ(set.Count(Tuple{Value::Int(1)}), 1u);
  Relation bag = v.ApplyBag(r);
  EXPECT_EQ(bag.Count(Tuple{Value::Int(1)}), 2u);
}

TEST(ValuationTest, ApplyDatabase) {
  Database db;
  Relation r({"x"});
  r.Add({Value::Null(1)});
  db.Put("R", std::move(r));
  Valuation v;
  v.Set(1, Value::Int(3));
  Database out = v.ApplySet(db);
  EXPECT_TRUE(out.IsComplete());
  EXPECT_TRUE(out.at("R").Contains(Tuple{Value::Int(3)}));
}

TEST(StatusTest, ToStringAndCodes) {
  EXPECT_EQ(Status::OK().ToString(), "OK");
  Status st = Status::InvalidArgument("bad");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad");
  EXPECT_FALSE(st.ok());
}

}  // namespace
}  // namespace incdb
