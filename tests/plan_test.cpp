// Tests for the physical-plan layer (src/eval/plan.h): every rewrite pass
// on/off must produce identical relations across all three evaluation
// modes on the desugar/chase corpus; compiled plans have the expected
// shape (a conjunctive query joins with exactly one HashJoin and no
// NLJoin); leaf scans borrow the database rows instead of copying; every
// operator the executor splits into chunks (both joins, difference,
// intersection, ⋉⇑, the semijoins that [NOT] IN compiles to) is
// row-for-row identical to sequential at every thread count; and the
// query-identity plan cache (src/eval/plan_cache.h) accounts hits/misses,
// distinguishes α-renamed from structurally identical queries,
// invalidates on schema change and survives concurrent lookups.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "algebra/builder.h"
#include "approx/approx.h"
#include "eval/eval.h"
#include "eval/parallel_policy.h"
#include "eval/plan.h"
#include "eval/plan_cache.h"
#include "eval/verify.h"
#include "sql/translate.h"
#include "tests/testing_util.h"
#include "tpch/tpch.h"

namespace incdb {
namespace {

using testing_util::FigureOne;
using testing_util::QueryZoo;
using testing_util::RandomDatabase;

/// The corpus the optimizer must be invisible on: the sugar-free QueryZoo,
/// the sugared desugar-corpus shapes, and ⋉⇑ (the unify-index pass's only
/// consumer), all over the RandomDatabase schema.
std::vector<AlgPtr> OptimizerCorpus() {
  std::vector<AlgPtr> corpus = QueryZoo();
  AlgPtr r = Scan("R");
  AlgPtr s = Scan("S");
  AlgPtr t = Scan("T");
  corpus.push_back(Join(r, s, CEq("R_b", "S_a")));
  corpus.push_back(Semijoin(r, s, CEq("R_a", "S_a")));
  corpus.push_back(Antijoin(r, s, CEq("R_a", "S_a")));
  corpus.push_back(InPredicate(Project(r, {"R_a"}), t, {"R_a"}, {"T_a"},
                               CTrue()));
  corpus.push_back(NotInPredicate(Project(r, {"R_a"}), t, {"R_a"}, {"T_a"},
                                  CTrue()));
  corpus.push_back(AntijoinUnify(r, s));
  corpus.push_back(Distinct(Project(r, {"R_a"})));
  // Join with a one-sided conjunct (exercises selection pushdown) and a
  // disjunctive join condition (exercises OR-expansion).
  corpus.push_back(Select(Product(r, Rename(s, {"S_x", "S_y"})),
                          CAnd(CEq("R_b", "S_x"),
                               CNeqc("R_a", Value::Int(1)))));
  corpus.push_back(Project(
      Select(Product(r, Rename(s, {"S_x", "S_y"})),
             COr(CEq("R_b", "S_x"), CIsNull("S_y"))),
      {"R_a", "S_y"}));
  return corpus;
}

std::vector<std::pair<const char*, EvalOptions>> ToggleConfigs() {
  std::vector<std::pair<const char*, EvalOptions>> configs;
  EvalOptions base;
  configs.push_back({"all passes", base});
  {
    EvalOptions o = base;
    o.enable_hash_join = false;
    configs.push_back({"- hash join", o});
  }
  {
    EvalOptions o = base;
    o.enable_or_expansion = false;
    configs.push_back({"- OR-expansion", o});
  }
  {
    EvalOptions o = base;
    o.enable_projection_fusion = false;
    configs.push_back({"- projection fusion", o});
  }
  {
    EvalOptions o = base;
    o.enable_unify_index = false;
    configs.push_back({"- unify index", o});
  }
  {
    EvalOptions o = base;
    o.enable_selection_pushdown = false;
    configs.push_back({"- selection pushdown", o});
  }
  {
    EvalOptions o = base;
    o.enable_hash_join = false;
    o.enable_or_expansion = false;
    o.enable_projection_fusion = false;
    o.enable_unify_index = false;
    o.enable_selection_pushdown = false;
    configs.push_back({"no passes", o});
  }
  return configs;
}

TEST(PlanPassesTest, EveryToggleConfigProducesIdenticalRelations) {
  using Evaluator =
      StatusOr<Relation> (*)(const AlgPtr&, const Database&,
                             const EvalOptions&);
  std::vector<std::pair<const char*, Evaluator>> modes = {
      {"set", &EvalSet}, {"bag", &EvalBag}, {"sql", &EvalSql}};
  std::mt19937_64 rng(42);
  for (int round = 0; round < 5; ++round) {
    Database db = RandomDatabase(rng);
    for (const AlgPtr& q : OptimizerCorpus()) {
      for (const auto& [mode_name, eval] : modes) {
        auto reference = eval(q, db, EvalOptions{});
        ASSERT_TRUE(reference.ok())
            << mode_name << " " << q->ToString() << ": "
            << reference.status().ToString();
        for (const auto& [cfg_name, opts] : ToggleConfigs()) {
          auto res = eval(q, db, opts);
          ASSERT_TRUE(res.ok()) << mode_name << "/" << cfg_name << " "
                                << q->ToString();
          EXPECT_TRUE(reference->SameRows(*res))
              << mode_name << "/" << cfg_name << " " << q->ToString() << ": "
              << reference->ToString() << " vs " << res->ToString();
        }
      }
    }
  }
}

TEST(PlanPassesTest, FigureOneQueriesStableUnderToggles) {
  for (bool with_null : {false, true}) {
    Database db = FigureOne(with_null);
    AlgPtr unpaid = NotInPredicate(
        Project(Scan("Orders"), {"oid"}),
        Rename(Project(Scan("Payments"), {"oid"}), {"poid"}), {"oid"},
        {"poid"}, CTrue());
    for (const auto& [cfg_name, opts] : ToggleConfigs()) {
      auto sql_ref = EvalSql(unpaid, db);
      auto sql = EvalSql(unpaid, db, opts);
      ASSERT_TRUE(sql_ref.ok() && sql.ok()) << cfg_name;
      EXPECT_TRUE(sql_ref->SameRows(*sql)) << cfg_name;
    }
  }
}

TEST(PlanShapeTest, ConjunctiveQueryUsesExactlyOneHashJoin) {
  std::mt19937_64 rng(3);
  Database db = RandomDatabase(rng);
  // π(σ_{R_b = S_a}(R × S)) — the canonical conjunctive join query.
  AlgPtr q = Project(Select(Product(Scan("R"), Scan("S")), CEq("R_b", "S_a")),
                     {"R_a", "S_b"});
  auto plan = Compile(q, EvalMode::kSetNaive, EvalOptions{}, db);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(CountOps(**plan, PhysOp::kHashJoin), 1u)
      << PlanToString(**plan);
  EXPECT_EQ(CountOps(**plan, PhysOp::kNLJoin), 0u) << PlanToString(**plan);
  // The fused projection lives on the join: no separate Project operator.
  EXPECT_EQ(CountOps(**plan, PhysOp::kProject), 0u) << PlanToString(**plan);

  // With the hash-join pass off, the same query falls back to NLJoin.
  EvalOptions no_hash;
  no_hash.enable_hash_join = false;
  auto nl = Compile(q, EvalMode::kSetNaive, no_hash, db);
  ASSERT_TRUE(nl.ok());
  EXPECT_EQ(CountOps(**nl, PhysOp::kHashJoin), 0u);
  EXPECT_EQ(CountOps(**nl, PhysOp::kNLJoin), 1u);
}

TEST(PlanShapeTest, PushdownMovesOneSidedConjunctBelowJoin) {
  std::mt19937_64 rng(4);
  Database db = RandomDatabase(rng);
  AlgPtr q = Select(Product(Scan("R"), Scan("S")),
                    CAnd(CEq("R_b", "S_a"), CEqc("R_a", Value::Int(0))));
  auto plan = Compile(q, EvalMode::kSetNaive, EvalOptions{}, db);
  ASSERT_TRUE(plan.ok());
  // R_a = 0 filters the R scan below the hash join.
  EXPECT_EQ(CountOps(**plan, PhysOp::kFilterSel), 1u) << PlanToString(**plan);
  EXPECT_EQ(CountOps(**plan, PhysOp::kHashJoin), 1u) << PlanToString(**plan);

  EvalOptions no_push;
  no_push.enable_selection_pushdown = false;
  auto kept = Compile(q, EvalMode::kSetNaive, no_push, db);
  ASSERT_TRUE(kept.ok());
  // The conjunct stays in the join residual: no filter operator at all.
  EXPECT_EQ(CountOps(**kept, PhysOp::kFilterSel), 0u) << PlanToString(**kept);

  // Without pushdown a join tree is still planned from its join graph: an
  // equality between two inputs under a product stays a hash key, and a σ
  // over a single input keeps its own filter.
  AlgPtr tree = Product(Join(Scan("R"), Scan("S"), CEq("R_b", "S_a")),
                        Rename(Scan("S"), {"T_a", "T_b"}));
  auto keyed = Compile(tree, EvalMode::kSetNaive, no_push, db);
  ASSERT_TRUE(keyed.ok());
  EXPECT_EQ(CountOps(**keyed, PhysOp::kHashJoin), 1u) << PlanToString(**keyed);
  AlgPtr leaf =
      Product(Select(Scan("R"), CEqc("R_a", Value::Int(0))), Scan("S"));
  auto filtered = Compile(leaf, EvalMode::kSetNaive, no_push, db);
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(CountOps(**filtered, PhysOp::kFilterSel), 1u)
      << PlanToString(**filtered);
}

TEST(PlanShapeTest, OrExpansionSharesCompiledInputs) {
  std::mt19937_64 rng(5);
  Database db = RandomDatabase(rng);
  AlgPtr q = Select(Product(Scan("R"), Rename(Scan("S"), {"S_x", "S_y"})),
                    COr(CEq("R_a", "S_x"), CEq("R_b", "S_y")));
  auto plan = Compile(q, EvalMode::kSetNaive, EvalOptions{}, db);
  ASSERT_TRUE(plan.ok());
  // Each disjunct is an equality: both branches hash-join, merged by one
  // union, over *shared* scan subtrees (the plan is a DAG).
  EXPECT_EQ(CountOps(**plan, PhysOp::kUnion), 1u) << PlanToString(**plan);
  EXPECT_EQ(CountOps(**plan, PhysOp::kHashJoin), 2u) << PlanToString(**plan);
  EXPECT_EQ(CountOps(**plan, PhysOp::kScanView), 2u) << PlanToString(**plan);
  bool has_shared = false;
  for (const auto& [node, count] : (*plan)->refcount) {
    (void)node;
    if (count > 1) has_shared = true;
  }
  EXPECT_TRUE(has_shared);
}

/// Every node of the DAG reachable from `n`, each once.
void CollectNodes(const PhysPtr& n, std::set<const PhysNode*>* seen,
                  std::vector<const PhysNode*>* out) {
  if (!seen->insert(n.get()).second) return;
  out->push_back(n.get());
  if (n->left) CollectNodes(n->left, seen, out);
  if (n->right) CollectNodes(n->right, seen, out);
}

TEST(PlanShapeTest, TpchQPlusAndQMaybeRunWithoutNestedLoops) {
  // The Fig. 2(b) translations of TPC-H-lite W1–W8 at scale 0.1 with 5%
  // nulls. The ▷ rule's θ? = k = k' ∨ null(k) ∨ null(k') compiles to one
  // antijoin whose null-aware key is k, so no plan needs a nested loop
  // but W4's Q?, whose join conditions are conjunctions of such
  // disjunctions. Every ⋉/▷ has keys, and none is a link of a chain of
  // antijoins over one right input.
  tpch::GenOptions gen;
  gen.scale = 0.1;
  gen.null_rate = 0.05;
  gen.seed = 7;
  Database db = tpch::Generate(gen);
  for (const tpch::BenchQuery& bq : tpch::Workload()) {
    for (bool plus : {true, false}) {
      const std::string where = bq.name + (plus ? " Q+" : " Q?");
      auto translated = plus ? TranslatePlus(bq.algebra, db)
                             : TranslateMaybe(bq.algebra, db);
      ASSERT_TRUE(translated.ok()) << where;
      EvalOptions seq;
      seq.use_plan_cache = false;
      auto plan = Compile(*translated, EvalMode::kSetNaive, seq, db);
      ASSERT_TRUE(plan.ok()) << where << ": " << plan.status().ToString();
      EXPECT_TRUE(VerifyPlan(*plan, &db).ok()) << where;
      const std::string shape = where + "\n" + PlanToString(**plan);
      if (bq.name.rfind("W4", 0) != 0 || plus) {
        EXPECT_EQ(CountOps(**plan, PhysOp::kNLJoin), 0u) << shape;
      }
      std::set<const PhysNode*> seen;
      std::vector<const PhysNode*> nodes;
      CollectNodes((*plan)->root, &seen, &nodes);
      for (const PhysNode* n : nodes) {
        if (n->op != PhysOp::kHashSemi) continue;
        EXPECT_FALSE(n->lkeys.empty()) << shape;
        if (n->anti && n->left->op == PhysOp::kHashSemi && n->left->anti) {
          EXPECT_NE(n->left->right, n->right) << shape;
        }
      }
      auto ref = Execute(*plan, db);
      ASSERT_TRUE(ref.ok()) << where << ": " << ref.status().ToString();
      for (size_t threads : {2, 4}) {
        EvalOptions par = seq;
        par.num_threads = threads;
        par.parallel_min_rows = 0;
        auto par_plan = Compile(*translated, EvalMode::kSetNaive, par, db);
        ASSERT_TRUE(par_plan.ok()) << where;
        EXPECT_TRUE(VerifyPlan(*par_plan, &db).ok()) << where;
        auto res = Execute(*par_plan, db);
        ASSERT_TRUE(res.ok()) << where << ": " << res.status().ToString();
        EXPECT_TRUE(ref->IdenticalTo(*res)) << where << " at " << threads
                                            << " threads";
      }
    }
  }
}

TEST(PlanShapeTest, SqlNotInIsOneNullAwareAntijoin) {
  // perfbench's W1/W3/W5/W8 as SQL. Each [NOT] IN compiles to one
  // HashSemi; under SQL's 3VL a NOT IN compares xᵢ = yᵢ ∨ null(xᵢ) ∨
  // null(yᵢ), so its key is null-aware, while the naive readings of W1
  // (set and bag) key on x = y.
  tpch::GenOptions gen;
  gen.scale = 0.1;
  gen.null_rate = 0.05;
  gen.seed = 7;
  Database db = tpch::Generate(gen);
  const std::pair<const char*, size_t> queries[] = {
      {"SELECT o_orderkey FROM orders WHERE o_totalprice > ? AND o_orderkey "
       "NOT IN ( SELECT l_orderkey FROM lineitem )",
       1},
      {"SELECT o_orderkey FROM orders WHERE o_status <> 'F' AND "
       "o_totalprice > ? AND o_orderkey NOT IN ( SELECT l_orderkey FROM "
       "lineitem )",
       1},
      {"SELECT p_partkey FROM part WHERE p_partkey NOT IN ( SELECT l_partkey "
       "FROM lineitem WHERE l_price > ? )",
       1},
      {"SELECT o_orderkey FROM orders WHERE o_orderkey NOT IN ( SELECT "
       "o2.o_orderkey FROM orders o2 WHERE o2.o_status <> 'F' AND "
       "o2.o_totalprice > ? AND o2.o_orderkey NOT IN ( SELECT l_orderkey "
       "FROM lineitem ) )",
       2}};
  for (const auto& [sql, not_ins] : queries) {
    auto q = ParseSqlToAlgebra(sql, db);
    ASSERT_TRUE(q.ok()) << sql << ": " << q.status().ToString();
    const bool w1 = sql == queries[0].first;
    for (EvalMode mode :
         {EvalMode::kSetSql, EvalMode::kSetNaive, EvalMode::kBagNaive}) {
      if (mode != EvalMode::kSetSql && !w1) continue;
      auto plan = Compile(*q, mode, EvalOptions{}, db);
      ASSERT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
      const std::string shape = std::string(sql) + "\n" + PlanToString(**plan);
      EXPECT_EQ(CountOps(**plan, PhysOp::kHashSemi), not_ins) << shape;
      EXPECT_EQ(CountOps(**plan, PhysOp::kNLJoin), 0u) << shape;
      EXPECT_EQ(CountOps(**plan, PhysOp::kUnion), 0u) << shape;
      std::set<const PhysNode*> seen;
      std::vector<const PhysNode*> nodes;
      CollectNodes((*plan)->root, &seen, &nodes);
      for (const PhysNode* n : nodes) {
        if (n->op != PhysOp::kHashSemi) continue;
        EXPECT_TRUE(n->anti) << shape;
        EXPECT_EQ(n->lkeys.size(), 1u) << shape;
        EXPECT_TRUE(n->trivial_residual) << shape;
        EXPECT_EQ(n->null_aware, mode == EvalMode::kSetSql) << shape;
      }
    }
  }
}

TEST(PlanShapeTest, SemiAntiReadsItsRightInputPastProjectAndDistinct) {
  // perfbench's W1, W3, W6 and W8 as SQL: every ▷ reads its right input
  // past the π the translator puts there, so the innermost one probes
  // ρ(lineitem) (ρ(orders) for W6) in place, and W8's outer ▷ reads the
  // inner one's rows. So in set, bag and SQL mode and in the Q+ and Q? of
  // each. W2's and W5's right inputs are a π∘σ, which stays fused.
  tpch::GenOptions gen;
  gen.scale = 0.1;
  gen.null_rate = 0.05;
  gen.seed = 7;
  Database db = tpch::Generate(gen);
  struct Case {
    const char* sql;
    const char* scanned;  ///< the innermost ▷'s right scan; null: π∘σ
  };
  const Case cases[] = {
      {"SELECT o_orderkey FROM orders WHERE o_totalprice > ? AND o_orderkey "
       "NOT IN ( SELECT l_orderkey FROM lineitem )",
       "lineitem"},
      {"SELECT o_orderkey FROM orders WHERE o_status <> 'F' AND "
       "o_totalprice > ? AND o_orderkey NOT IN ( SELECT l_orderkey FROM "
       "lineitem )",
       "lineitem"},
      {"SELECT c_custkey, c_acctbal FROM customer WHERE c_acctbal > ? AND NOT "
       "EXISTS ( SELECT * FROM orders WHERE o_custkey = c_custkey )",
       "orders"},
      {"SELECT o_orderkey FROM orders WHERE o_orderkey NOT IN ( SELECT "
       "o2.o_orderkey FROM orders o2 WHERE o2.o_status <> 'F' AND "
       "o2.o_totalprice > ? AND o2.o_orderkey NOT IN ( SELECT l_orderkey "
       "FROM lineitem ) )",
       "lineitem"},
      {"SELECT c_custkey FROM customer WHERE NOT EXISTS ( SELECT * FROM "
       "orders WHERE o_custkey = c_custkey AND o_totalprice > ? )",
       nullptr},
      {"SELECT p_partkey FROM part WHERE p_partkey NOT IN ( SELECT l_partkey "
       "FROM lineitem WHERE l_price > ? )",
       nullptr}};
  for (const Case& c : cases) {
    auto q = ParseSqlToAlgebra(c.sql, db);
    ASSERT_TRUE(q.ok()) << c.sql << ": " << q.status().ToString();
    auto bound = BindParams(*q, {Value::Int(1000)});
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    std::vector<std::pair<AlgPtr, EvalMode>> forms;
    for (EvalMode mode :
         {EvalMode::kSetSql, EvalMode::kSetNaive, EvalMode::kBagNaive}) {
      forms.emplace_back(*q, mode);
    }
    for (auto translate : {&TranslatePlus, &TranslateMaybe}) {
      auto t = translate(*bound, db);
      ASSERT_TRUE(t.ok()) << c.sql << ": " << t.status().ToString();
      forms.emplace_back(*t, EvalMode::kSetNaive);
    }
    for (const auto& [form, mode] : forms) {
      auto plan = Compile(form, mode, EvalOptions{}, db);
      ASSERT_TRUE(plan.ok()) << c.sql << ": " << plan.status().ToString();
      const std::string shape =
          std::string(c.sql) + "\n" + PlanToString(**plan);
      std::set<const PhysNode*> seen;
      std::vector<const PhysNode*> nodes;
      CollectNodes((*plan)->root, &seen, &nodes);
      size_t innermost = 0;
      for (const PhysNode* n : nodes) {
        if (n->op != PhysOp::kHashSemi) continue;
        const PhysNode& right = *n->right;
        if (c.scanned == nullptr) {
          EXPECT_EQ(right.op, PhysOp::kFusedProjectFilter) << shape;
          continue;
        }
        EXPECT_NE(right.op, PhysOp::kProject) << shape;
        EXPECT_NE(right.op, PhysOp::kDistinct) << shape;
        if (right.op == PhysOp::kHashSemi) continue;
        ++innermost;
        ASSERT_EQ(right.op, PhysOp::kRename) << shape;
        EXPECT_EQ(right.left->op, PhysOp::kScanView) << shape;
        EXPECT_EQ(right.left->rel_name, c.scanned) << shape;
      }
      if (c.scanned != nullptr) {
        EXPECT_EQ(innermost, 1u) << shape;
      }
    }
  }

  // A π whose dropped column is named like a left one stays: reading past
  // it would put that name on both sides. A δ over it still goes.
  std::mt19937_64 rng(3);
  Database rs = RandomDatabase(rng, 4);
  const AlgPtr clash = Project(Rename(Scan("S"), {"S_a", "R_a"}), {"S_a"});
  for (const AlgPtr& right : {clash, Distinct(clash)}) {
    auto plan = Compile(Antijoin(Scan("R"), right, CEq("R_b", "S_a")),
                        EvalMode::kBagNaive, EvalOptions{}, rs);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const PhysNode& semi = *(*plan)->root;
    ASSERT_EQ(semi.op, PhysOp::kHashSemi) << PlanToString(**plan);
    EXPECT_EQ(semi.right->op, PhysOp::kProject) << PlanToString(**plan);
  }
}

TEST(PlanShapeTest, W4HashJoinsEveryConnectedPairInEveryFromOrder) {
  // W4 as SQL text in each of its 6 FROM orders, at scale 0.1 with 5%
  // nulls. The compiler plans the σ/× tree from its join graph, so each
  // equality-connected pair is a hash-join key whatever the order: in set,
  // bag and SQL mode, and in the Fig. 2(b) Q+, which needs no NL join. Q?'s
  // θ? conjuncts OR-expand, so each of its NL joins reads a null(·) filter
  // on one input. Every order returns the same rows, identically at 1, 2
  // and 4 threads.
  tpch::GenOptions gen;
  gen.scale = 0.1;
  gen.null_rate = 0.05;
  gen.seed = 7;
  Database db = tpch::Generate(gen);
  const std::set<std::set<std::string>> edges = {
      {"c_custkey", "o_custkey"}, {"c_nationkey", "n_nationkey"}};
  auto bare = [](const std::string& a) { return a.substr(a.rfind('.') + 1); };
  auto null_filter = [](const PhysNode* n) {
    while (n->op == PhysOp::kRename) n = n->left.get();
    return n->op == PhysOp::kFilterSel && n->cond->kind == CondKind::kIsNull;
  };
  struct Form {
    const char* name;
    EvalMode mode;
    StatusOr<AlgPtr> (*translate)(const AlgPtr&, const Database&);
  };
  const Form forms[] = {{"set", EvalMode::kSetNaive, nullptr},
                        {"bag", EvalMode::kBagNaive, nullptr},
                        {"sql", EvalMode::kSetSql, nullptr},
                        {"Q+", EvalMode::kSetNaive, &TranslatePlus},
                        {"Q?", EvalMode::kSetNaive, &TranslateMaybe}};
  std::map<std::string, Relation> first_rows;
  std::vector<std::string> tables = {"customer", "nation", "orders"};
  do {
    const std::string from = tables[0] + ", " + tables[1] + ", " + tables[2];
    auto q = ParseSqlToAlgebra(
        "SELECT c_custkey, o_orderkey, n_name FROM " + from +
            " WHERE c_custkey = o_custkey AND c_nationkey = n_nationkey AND "
            "o_totalprice > 1000",
        db);
    ASSERT_TRUE(q.ok()) << from << ": " << q.status().ToString();
    for (const Form& f : forms) {
      const std::string where = std::string(f.name) + " FROM " + from;
      auto alg = f.translate != nullptr ? f.translate(*q, db) : q;
      ASSERT_TRUE(alg.ok()) << where << ": " << alg.status().ToString();
      EvalOptions seq;
      seq.use_plan_cache = false;
      auto plan = Compile(*alg, f.mode, seq, db);
      ASSERT_TRUE(plan.ok()) << where << ": " << plan.status().ToString();
      EXPECT_TRUE(VerifyPlan(*plan, &db).ok()) << where;
      const std::string shape = where + "\n" + PlanToString(**plan);
      std::set<const PhysNode*> seen;
      std::vector<const PhysNode*> nodes;
      CollectNodes((*plan)->root, &seen, &nodes);
      std::set<std::set<std::string>> keys;
      for (const PhysNode* n : nodes) {
        if (n->op == PhysOp::kHashJoin) {
          for (size_t i = 0; i < n->lkeys.size(); ++i) {
            keys.insert({bare(n->left->attrs[n->lkeys[i]]),
                         bare(n->right->attrs[n->rkeys[i]])});
          }
        }
        if (n->op == PhysOp::kNLJoin) {
          EXPECT_EQ(f.translate, &TranslateMaybe) << shape;
          EXPECT_TRUE(null_filter(n->left.get()) ||
                      null_filter(n->right.get()))
              << shape;
        }
      }
      for (const std::set<std::string>& e : edges) {
        EXPECT_EQ(keys.count(e), 1u) << *e.begin() << " " << shape;
      }
      auto ref = Execute(*plan, db);
      ASSERT_TRUE(ref.ok()) << where << ": " << ref.status().ToString();
      for (size_t threads : {2, 4}) {
        EvalOptions par = seq;
        par.num_threads = threads;
        par.parallel_min_rows = 0;
        auto par_plan = Compile(*alg, f.mode, par, db);
        ASSERT_TRUE(par_plan.ok()) << where;
        EXPECT_TRUE(VerifyPlan(*par_plan, &db).ok()) << where;
        auto res = Execute(*par_plan, db);
        ASSERT_TRUE(res.ok()) << where << ": " << res.status().ToString();
        EXPECT_TRUE(ref->IdenticalTo(*res))
            << where << " at " << threads << " threads";
      }
      auto [it, fresh] = first_rows.emplace(f.name, *ref);
      EXPECT_TRUE(fresh || it->second.SameRows(*ref))
          << where << " disagrees with the first FROM order";
    }
  } while (std::next_permutation(tables.begin(), tables.end()));
}

TEST(PlanExecTest, CompileOnceExecuteManyAcrossDatabases) {
  std::mt19937_64 rng(6);
  Database db1 = RandomDatabase(rng);
  Database db2 = RandomDatabase(rng);  // same schema, different rows
  AlgPtr q = Project(Select(Product(Scan("R"), Scan("S")), CEq("R_b", "S_a")),
                     {"R_a", "S_b"});
  auto plan = Compile(q, EvalMode::kSetNaive, EvalOptions{}, db1);
  ASSERT_TRUE(plan.ok());
  for (const Database* db : {&db1, &db2}) {
    auto via_plan = Execute(*plan, *db);
    auto direct = EvalSet(q, *db);
    ASSERT_TRUE(via_plan.ok() && direct.ok());
    EXPECT_TRUE(via_plan->SameRows(*direct));
  }
}

TEST(PlanExecTest, ScansAreBorrowedViews) {
  std::mt19937_64 rng(7);
  Database db = RandomDatabase(rng);  // RandomDatabase stores sets
  ScanResolver resolver(db);
  auto view = resolver.Resolve("R", /*collapse_to_set=*/true);
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view->borrowed());
  EXPECT_EQ(&view->rel(), &db.at("R"));  // zero-copy: the same object

  // A non-set relation under set collapse materialises once and is then
  // served from the cache.
  Relation bag({"x"});
  bag.Add({Value::Int(1)}, 3);
  db.Put("B", bag);
  auto b1 = resolver.Resolve("B", true);
  auto b2 = resolver.Resolve("B", true);
  ASSERT_TRUE(b1.ok() && b2.ok());
  EXPECT_NE(&b1->rel(), &db.at("B"));
  EXPECT_EQ(&b1->rel(), &b2->rel());  // cached copy is shared
  EXPECT_TRUE(b1->rel().IsSet());
  // Under bag semantics the same relation is borrowed untouched.
  auto braw = resolver.Resolve("B", false);
  ASSERT_TRUE(braw.ok());
  EXPECT_EQ(&braw->rel(), &db.at("B"));
}

TEST(PlanExecTest, RelationViewOwnBorrowRenameMaterialize) {
  Relation r({"a", "b"});
  r.Add({Value::Int(1), Value::Int(2)});
  RelationView borrowed = RelationView::Borrow(r);
  EXPECT_TRUE(borrowed.borrowed());
  RelationView renamed = borrowed.Renamed({"x", "y"});
  EXPECT_EQ(renamed.attrs(), (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(&renamed.rel(), &r);  // still zero-copy
  Relation materialized = std::move(renamed).Materialize();
  EXPECT_EQ(materialized.attrs(), (std::vector<std::string>{"x", "y"}));
  EXPECT_TRUE(materialized.SameRows(r));

  RelationView owned = RelationView::Own(std::move(r));
  EXPECT_FALSE(owned.borrowed());
  Relation back = std::move(owned).Materialize();
  EXPECT_EQ(back.Count(Tuple{Value::Int(1), Value::Int(2)}), 1u);
}

TEST(PlanExecTest, ParallelHashJoinMatchesSequential) {
  // Big enough to cross the parallel threshold; includes nulls so the
  // SQL-mode null-key skipping is exercised too. Probe chunks merged in
  // chunk order reproduce the sequential join row for row.
  std::mt19937_64 rng(8);
  Database db;
  Relation l({"a", "b"}), r({"c", "d"});
  for (int i = 0; i < 1500; ++i) {
    l.Add({Value::Int(static_cast<int64_t>(rng() % 200)),
           Value::Int(static_cast<int64_t>(i))});
    if (i % 97 == 0) {
      r.Add({Value::Null(i), Value::Int(static_cast<int64_t>(rng() % 200))});
    } else {
      r.Add({Value::Int(static_cast<int64_t>(i)),
             Value::Int(static_cast<int64_t>(rng() % 200))});
    }
  }
  db.Put("L", l);
  db.Put("Rr", r);
  AlgPtr join = Join(Scan("L"), Scan("Rr"), CEq("b", "c"));
  AlgPtr fused = Project(Select(Product(Scan("L"), Scan("Rr")),
                                CEq("b", "c")),
                         {"a", "d"});
  for (const AlgPtr& q : {join, fused}) {
    using EvalFn = StatusOr<Relation> (*)(const AlgPtr&, const Database&,
                                           const EvalOptions&);
    for (EvalFn eval : {EvalFn(&EvalSet), EvalFn(&EvalBag), EvalFn(&EvalSql)}) {
      EvalOptions seq;
      auto ref = (*eval)(q, db, seq);
      ASSERT_TRUE(ref.ok());
      for (size_t threads : {2, 4}) {
        EvalOptions par;
        par.num_threads = threads;
        auto res = (*eval)(q, db, par);
        ASSERT_TRUE(res.ok());
        EXPECT_TRUE(ref->IdenticalTo(*res))
            << q->ToString() << " with " << threads << " threads";
      }
    }
  }
}

// A medium database for the chunked operators: two overlapping
// 3000-row relations with sprinkled nulls and bag multiplicities.
Database ChunkOpDatabase() {
  std::mt19937_64 rng(9);
  Database db;
  Relation p1({"a", "b"}), p2({"a", "b"});
  for (int i = 0; i < 3000; ++i) {
    Value a = (i % 61 == 0) ? Value::Null(i % 7)
                            : Value::Int(static_cast<int64_t>(rng() % 2000));
    p1.Add({a, Value::Int(static_cast<int64_t>(rng() % 50))}, 1 + i % 3);
    Value a2 = (i % 83 == 0) ? Value::Null(i % 5)
                             : Value::Int(static_cast<int64_t>(rng() % 2000));
    p2.Add({a2, Value::Int(static_cast<int64_t>(rng() % 50))}, 1 + i % 2);
  }
  db.Put("P1", std::move(p1));
  db.Put("P2", std::move(p2));
  // Smaller pair for the quadratic NL join (400×400 pairs per eval).
  Relation n1({"a", "b"}), n2({"c", "d"});
  for (int i = 0; i < 400; ++i) {
    n1.Add({Value::Int(static_cast<int64_t>(rng() % 300)),
            Value::Int(static_cast<int64_t>(rng() % 50))});
    n2.Add({(i % 37 == 0) ? Value::Null(i % 3)
                          : Value::Int(static_cast<int64_t>(rng() % 300)),
            Value::Int(static_cast<int64_t>(rng() % 50))});
  }
  db.Put("N1", std::move(n1));
  db.Put("N2", std::move(n2));
  return db;
}

/// Every operator the row driver splits into chunks promises more than
/// SameRows: chunk outputs merged in chunk order reproduce the exact
/// sequential insertion order, so the materialised relation is row-for-row
/// identical at every thread count. parallel_min_rows = 0 sends each of
/// them to the pool.
TEST(PlanExecTest, ChunkParallelOperatorsAreBitIdenticalToSequential) {
  Database db = ChunkOpDatabase();
  const AlgPtr p1 = Scan("P1");
  const AlgPtr p2 = Scan("P2");
  const AlgPtr p2cd = Rename(p2, {"c", "d"});
  // Difference (HashDiff in all three modes, incl. SQL NOT-IN),
  // intersection (IN in SQL mode), ⋉⇑, a non-equality join condition that
  // compiles to an NLJoin, the hash join plain and with a fused π, the
  // semijoins and [NOT] IN, uncorrelated and correlated.
  std::vector<AlgPtr> queries = {
      Diff(p1, p2),
      Intersect(p1, p2),
      AntijoinUnify(p1, p2),
      Join(Scan("N1"), Scan("N2"), CLt("b", "d")),
      Join(p1, p2cd, CEq("a", "c")),
      Project(Select(Product(p1, p2cd), CEq("a", "c")), {"b", "d"}),
      Semijoin(p1, p2cd, CEq("a", "c")),
      Antijoin(p1, p2cd, CEq("a", "c")),
      InPredicate(p1, p2cd, {"a"}, {"c"}, CTrue()),
      NotInPredicate(p1, p2cd, {"a"}, {"c"}, CTrue()),
      InPredicate(Scan("N1"), Scan("N2"), {"a"}, {"c"}, CLt("b", "d")),
      NotInPredicate(Scan("N1"), Scan("N2"), {"a"}, {"c"}, CLt("b", "d")),
  };
  for (const AlgPtr& q : queries) {
    using EvalFn = StatusOr<Relation> (*)(const AlgPtr&, const Database&,
                                           const EvalOptions&);
    for (EvalFn eval : {EvalFn(&EvalSet), EvalFn(&EvalBag), EvalFn(&EvalSql)}) {
      EvalOptions seq;
      seq.use_plan_cache = false;
      auto ref = (*eval)(q, db, seq);
      ASSERT_TRUE(ref.ok()) << q->ToString() << ": "
                            << ref.status().ToString();
      for (size_t threads : {2, 3, 4, 8}) {
        EvalOptions par = seq;
        par.num_threads = threads;
        par.parallel_min_rows = 0;
        auto res = (*eval)(q, db, par);
        ASSERT_TRUE(res.ok()) << q->ToString() << " with " << threads
                              << " threads: " << res.status().ToString();
        EXPECT_TRUE(ref->IdenticalTo(*res))
            << q->ToString() << " with " << threads << " threads";
      }
    }
  }
}

// parallel_min_rows = 0 forces the chunked paths on tiny inputs — the
// boundary cases (empty sides, single rows, more chunks than rows).
TEST(PlanExecTest, ChunkParallelOperatorsHandleTinyInputs) {
  std::mt19937_64 rng(10);
  Database db = RandomDatabase(rng, /*tuples_per_rel=*/2);
  const AlgPtr r = Scan("R");
  const AlgPtr s = Scan("S");
  const AlgPtr scd = Rename(s, {"c", "d"});
  const AlgPtr empty = Select(r, CFalse());
  std::vector<AlgPtr> queries = {
      Diff(r, s),
      Intersect(r, s),
      AntijoinUnify(r, s),
      Join(r, scd, CNeq("R_a", "c")),
      Join(r, scd, CEq("R_a", "c")),
      Project(Select(Product(r, scd), CEq("R_a", "c")), {"R_b"}),
      Semijoin(r, scd, CEq("R_a", "c")),
      Antijoin(r, scd, CEq("R_a", "c")),
      InPredicate(r, scd, {"R_a"}, {"c"}, CTrue()),
      NotInPredicate(r, scd, {"R_a"}, {"c"}, CTrue()),
      InPredicate(r, scd, {"R_a"}, {"c"}, CNeq("R_b", "d")),
      NotInPredicate(r, scd, {"R_a"}, {"c"}, CNeq("R_b", "d")),
      Diff(empty, s),  // empty left side
      Join(empty, scd, CEq("R_a", "c")),
      Join(r, Rename(Select(s, CFalse()), {"c", "d"}), CEq("R_a", "c")),
  };
  for (const AlgPtr& q : queries) {
    using EvalFn = StatusOr<Relation> (*)(const AlgPtr&, const Database&,
                                           const EvalOptions&);
    for (EvalFn eval : {EvalFn(&EvalSet), EvalFn(&EvalBag), EvalFn(&EvalSql)}) {
      EvalOptions seq;
      seq.use_plan_cache = false;
      auto ref = (*eval)(q, db, seq);
      ASSERT_TRUE(ref.ok()) << q->ToString() << ": "
                            << ref.status().ToString();
      for (size_t threads : {2, 3, 4, 8}) {
        EvalOptions par = seq;
        par.num_threads = threads;
        par.parallel_min_rows = 0;
        auto res = (*eval)(q, db, par);
        ASSERT_TRUE(res.ok()) << q->ToString() << " with " << threads
                              << " threads: " << res.status().ToString();
        EXPECT_TRUE(ref->IdenticalTo(*res))
            << q->ToString() << " with " << threads << " threads";
      }
    }
  }
}

TEST(PlanExecTest, ParallelNLJoinHonoursBudget) {
  Database db;
  Relation l({"a", "b"}), r({"c", "d"});
  for (int i = 0; i < 600; ++i) {
    l.Add({Value::Int(i), Value::Int(i % 7)});
    r.Add({Value::Int(i), Value::Int((i + 1) % 7)});
  }
  db.Put("L", l);
  db.Put("Rr", r);
  // b ≠ d holds for most of the 360000 pairs — far beyond the budget.
  EvalOptions opts;
  opts.num_threads = 4;
  opts.max_tuples = 10;
  opts.use_plan_cache = false;
  auto res = EvalSet(Join(Scan("L"), Scan("Rr"), CNeq("b", "d")), db, opts);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
}

// Hash join, semijoin/antijoin (on plain and on null-aware keys), [NOT] IN
// and ⋉⇑ over keys with heavy duplication and repeated marked nulls, in
// every mode, each against a form of the same query that takes no key
// index: the NL join, a semijoin/antijoin whose condition hides its key in
// a disjunction with false (so nothing is hashed) and the unindexed ⋉⇑
// scan. [NOT] IN compares against that ⋉/▷ on its lowered condition: x = y,
// and under SQL's NOT IN x = y ∨ null(x) ∨ null(y).
TEST(PlanExecTest, KeyedOperatorsAgreeWithUnindexedFormsOnDuplicateKeys) {
  Database db;
  Relation l({"a", "b"}), r({"c", "d"});
  auto key = [](int i) {
    return i % 5 < 3 ? Value::Int(i % 5) : Value::Null(i % 5 - 3);
  };
  for (int i = 0; i < 240; ++i) l.Add({key(i), Value::Int(i)}, 1 + i % 3);
  for (int i = 0; i < 160; ++i) {
    r.Add({key(i * 7), Value::Int(i % 40)}, 1 + i % 2);
  }
  db.Put("L", std::move(l));
  db.Put("R", std::move(r));
  const AlgPtr L = Scan("L");
  const AlgPtr R = Scan("R");
  const CondPtr eq = CEq("a", "c");
  const CondPtr eq_unhashed = COr(eq, CFalse());
  const CondPtr maybe_eq = COr(eq, COr(CIsNull("a"), CIsNull("c")));
  const CondPtr maybe_eq_left = COr(COr(CEq("c", "a"), CIsNull("a")),
                                    CIsNull("c"));
  const CondPtr maybe_unhashed = COr(maybe_eq, CFalse());
  struct Case {
    AlgPtr indexed, unindexed;
    EvalOptions unindexed_opts;
    AlgPtr sql_unindexed = nullptr;  ///< The unindexed form under SQL.
  };
  EvalOptions no_hash_join;
  no_hash_join.enable_hash_join = false;
  EvalOptions no_unify_index;
  no_unify_index.enable_unify_index = false;
  const Case cases[] = {
      {Join(L, R, eq), Join(L, R, eq), no_hash_join},
      {Semijoin(L, R, eq), Semijoin(L, R, eq_unhashed), {}},
      {Antijoin(L, R, eq), Antijoin(L, R, eq_unhashed), {}},
      {Semijoin(L, R, maybe_eq), Semijoin(L, R, maybe_unhashed), {}},
      {Antijoin(L, R, maybe_eq_left), Antijoin(L, R, maybe_unhashed), {}},
      {InPredicate(L, R, {"a"}, {"c"}, CTrue()), Semijoin(L, R, eq_unhashed),
       {}},
      {NotInPredicate(L, R, {"a"}, {"c"}, CTrue()),
       Antijoin(L, R, eq_unhashed), {}, Antijoin(L, R, maybe_unhashed)},
      {AntijoinUnify(L, R), AntijoinUnify(L, R), no_unify_index},
  };
  using EvalFn = StatusOr<Relation> (*)(const AlgPtr&, const Database&,
                                         const EvalOptions&);
  const std::pair<EvalMode, EvalFn> modes[] = {
      {EvalMode::kSetNaive, &EvalSet},
      {EvalMode::kBagNaive, &EvalBag},
      {EvalMode::kSetSql, &EvalSql}};
  // Key columns of the ⋉/▷ a form compiles to.
  auto semi_keys = [&db](const AlgPtr& q, EvalMode mode) {
    auto plan = Compile(q, mode, EvalOptions{}, db);
    EXPECT_TRUE(plan.ok() && (*plan)->root->op == PhysOp::kHashSemi);
    return plan.ok() ? (*plan)->root->lkeys.size() : 0;
  };
  for (const Case& c : cases) {
    for (const auto& [mode, eval] : modes) {
      const AlgPtr& unindexed = mode == EvalMode::kSetSql && c.sql_unindexed
                                    ? c.sql_unindexed
                                    : c.unindexed;
      if (c.indexed->kind != OpKind::kJoin &&
          c.indexed->kind != OpKind::kAntijoinUnify) {
        EXPECT_EQ(semi_keys(c.indexed, mode), 1u) << c.indexed->ToString();
        EXPECT_EQ(semi_keys(unindexed, mode), 0u) << unindexed->ToString();
      }
      auto want = (*eval)(unindexed, db, c.unindexed_opts);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      for (size_t threads : {1, 2, 4}) {
        EvalOptions o;
        o.num_threads = threads;
        o.parallel_min_rows = 0;
        auto got = (*eval)(c.indexed, db, o);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        // Only the join's row order depends on the plan.
        EXPECT_TRUE(c.indexed->kind == OpKind::kJoin
                        ? want->SameRows(*got)
                        : want->IdenticalTo(*got))
            << c.indexed->ToString() << " with " << threads << " threads\n"
            << "indexed:\n" << got->ToString() << "\nunindexed:\n"
            << want->ToString();
      }
    }
  }
}

// A hash join over a hash join that nothing else reads probes its index
// with the rows the lower join emits, without storing them, when its
// right input is no larger than the lower join's probe side; otherwise
// the lower join is materialised first. Both paths, with and without
// fused projections (a fused lower join emits repeated rows, which only a
// fused upper join may merge), must give the rows the nested-loop plan
// gives, identically at 1, 2 and 4 threads.
TEST(PlanExecTest, ChainedHashJoinsMatchNestedLoopJoins) {
  Database db;
  Relation a({"a", "b"}), b({"c", "d"}), c({"e", "f"});
  auto key = [](int i, int n) {
    return i % 9 == 8 ? Value::Null(i % 2) : Value::Int(i % n);
  };
  for (int i = 0; i < 200; ++i) a.Add({Value::Int(i), key(i, 10)}, 1 + i % 3);
  for (int i = 0; i < 120; ++i) b.Add({key(i, 10), key(i * 5, 7)}, 1 + i % 2);
  for (int i = 0; i < 6; ++i) c.Add({key(i, 6), Value::Int(i)});
  db.Put("A", std::move(a));
  db.Put("B", std::move(b));
  db.Put("C", std::move(c));
  const AlgPtr ab = Join(Scan("A"), Scan("B"), CEq("b", "c"));
  const AlgPtr ab_bd = Project(ab, {"b", "d"});
  const AlgPtr queries[] = {
      Join(ab, Scan("C"), CEq("d", "e")),
      Project(Join(ab, Scan("C"), CEq("d", "e")), {"a", "f"}),
      Join(ab_bd, Scan("C"), CEq("d", "e")),
      Project(Join(ab_bd, Scan("C"), CEq("d", "e")), {"b", "f"}),
      // The right input (A) outgrows the lower join's probe side (B).
      Join(Join(Scan("C"), Scan("B"), CEq("e", "d")), Scan("A"),
           CEq("c", "b")),
  };
  EvalOptions nested;
  nested.enable_hash_join = false;
  const EvalMode modes[] = {EvalMode::kSetNaive, EvalMode::kBagNaive,
                            EvalMode::kSetSql};
  for (const AlgPtr& q : queries) {
    for (EvalMode mode : modes) {
      const std::string where =
          q->ToString() + " mode " + std::to_string(static_cast<int>(mode));
      auto want_plan = Compile(q, mode, nested, db);
      ASSERT_TRUE(want_plan.ok()) << where;
      auto want = Execute(*want_plan, db);
      ASSERT_TRUE(want.ok()) << where << ": " << want.status().ToString();
      StatusOr<Relation> first = Status::Internal("unset");
      for (size_t threads : {1, 2, 4}) {
        EvalOptions o;
        o.num_threads = threads;
        o.parallel_min_rows = 0;
        auto plan = Compile(q, mode, o, db);
        ASSERT_TRUE(plan.ok()) << where;
        const PhysNode& root = *(*plan)->root;
        ASSERT_EQ(root.op, PhysOp::kHashJoin) << PlanToString(**plan);
        ASSERT_EQ(root.left->op, PhysOp::kHashJoin) << PlanToString(**plan);
        auto got = Execute(*plan, db);
        ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
        EXPECT_TRUE(want->SameRows(*got))
            << where << " at " << threads << " threads\nchained:\n"
            << got->ToString() << "\nnested loops:\n" << want->ToString();
        if (threads == 1) {
          first = std::move(got);
        } else {
          EXPECT_TRUE(first->IdenticalTo(*got)) << where << " at " << threads;
        }
      }
    }
  }
}

// The hash join indexes the smaller side (here L) and emits, probe row by
// probe row, the build rows sharing its key in their row order.
TEST(PlanExecTest, HashJoinEmitsMatchesInBuildOrder) {
  Database db;
  Relation l({"a", "b"}), r({"c", "d"});
  for (auto [a, b] : {std::pair<int, const char*>{1, "x"}, {1, "y"},
                      {2, "z"}, {1, "w"}}) {
    l.Add({Value::Int(a), Value::String(b)});
  }
  for (auto [c, d] : {std::pair<int, const char*>{1, "p"}, {2, "q"},
                      {1, "r"}, {3, "s"}, {2, "t"}}) {
    r.Add({Value::Int(c), Value::String(d)});
  }
  db.Put("L", std::move(l));
  db.Put("R", std::move(r));
  auto res = EvalSet(Join(Scan("L"), Scan("R"), CEq("a", "c")), db);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  Relation want({"a", "b", "c", "d"});
  for (auto [lb, c, d] : {std::tuple<const char*, int, const char*>{
                              "x", 1, "p"},
                          {"y", 1, "p"}, {"w", 1, "p"}, {"z", 2, "q"},
                          {"x", 1, "r"}, {"y", 1, "r"}, {"w", 1, "r"},
                          {"z", 2, "t"}}) {
    want.Add({Value::Int(c), Value::String(lb), Value::Int(c),
              Value::String(d)});
  }
  EXPECT_TRUE(res->IdenticalTo(want)) << res->ToString();
}

// Two join rows of 2^63 each overflow only in sum. With max_tuples at its
// ceiling the budget's running total (sequential) and the parallel merge's
// total must still fail instead of wrapping to 0 and passing.
TEST(PlanExecTest, BagTotalOverflowIsResourceExhausted) {
  Database db;
  Relation l({"a", "b"}), r({"c"});
  l.Add({Value::Int(1), Value::Int(1)}, uint64_t{1} << 32);
  l.Add({Value::Int(1), Value::Int(2)}, uint64_t{1} << 32);
  r.Add({Value::Int(1)}, uint64_t{1} << 31);
  db.Put("L", std::move(l));
  db.Put("Rr", std::move(r));
  for (size_t threads : {1, 2}) {
    EvalOptions o;
    o.max_tuples = UINT64_MAX;
    o.num_threads = threads;
    o.parallel_min_rows = 0;
    auto res = EvalBag(Join(Scan("L"), Scan("Rr"), CEq("a", "c")), db, o);
    ASSERT_FALSE(res.ok()) << threads << " threads: " << res->ToString();
    EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted)
        << res.status().ToString();
  }
}

TEST(PlanOptionsTest, NumThreadsZeroAndAbsurdValuesAreValidated) {
  std::mt19937_64 rng(11);
  Database db = RandomDatabase(rng);
  AlgPtr q = Diff(Scan("R"), Scan("S"));
  // 0 resolves to hardware_concurrency (at least 1).
  EvalOptions zero;
  zero.num_threads = 0;
  auto plan = Compile(q, EvalMode::kSetNaive, zero, db);
  ASSERT_TRUE(plan.ok());
  EXPECT_GE((*plan)->opts.num_threads, 1u);
  EXPECT_LE((*plan)->opts.num_threads, kMaxEvalThreads);
  // An absurd request clamps instead of allocating a million partitions.
  EvalOptions absurd;
  absurd.num_threads = 1 << 20;
  auto clamped = Compile(q, EvalMode::kSetNaive, absurd, db);
  ASSERT_TRUE(clamped.ok());
  EXPECT_EQ((*clamped)->opts.num_threads, kMaxEvalThreads);
  // Regression: both evaluate and agree with the sequential result.
  EvalOptions seq;
  seq.use_plan_cache = false;
  auto ref = EvalSet(q, db, seq);
  ASSERT_TRUE(ref.ok());
  for (EvalOptions o : {zero, absurd}) {
    o.parallel_min_rows = 0;
    o.use_plan_cache = false;
    auto res = EvalSet(q, db, o);
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(ref->IdenticalTo(*res));
  }
}

TEST(PlanCacheTest, HitMissAccountingAndLookupIdentity) {
  std::mt19937_64 rng(12);
  Database db = RandomDatabase(rng);
  PlanCache cache;
  EvalOptions opts;
  auto build = [] {
    return Project(Select(Product(Scan("R"), Scan("S")), CEq("R_b", "S_a")),
                   {"R_a", "S_b"});
  };
  auto p1 = cache.CompileCached(build(), EvalMode::kSetNaive, opts, db);
  ASSERT_TRUE(p1.ok());
  PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.size, 1u);
  // A structurally identical but independently built tree hits: identity
  // is structural, not pointer-based.
  auto p2 = cache.CompileCached(build(), EvalMode::kSetNaive, opts, db);
  ASSERT_TRUE(p2.ok());
  s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(p1->get(), p2->get());  // the same compiled plan object
  // The cached plan executes correctly.
  auto via_cache = Execute(*p2, db);
  auto direct = EvalSet(build(), db, opts);
  ASSERT_TRUE(via_cache.ok() && direct.ok());
  EXPECT_TRUE(via_cache->SameRows(*direct));
}

TEST(PlanCacheTest, AlphaRenamedAndDistinctQueriesKeySeparately) {
  std::mt19937_64 rng(13);
  Database db = RandomDatabase(rng);
  PlanCache cache;
  EvalOptions opts;
  // What participates in query identity, asserted on the key bytes
  // directly: structural equality of independently built trees, attribute
  // names, mode, toggles and the scanned schemas all do.
  EXPECT_EQ(PlanCacheKey(Rename(Scan("R"), {"x", "y"}), EvalMode::kSetNaive,
                         opts, db),
            PlanCacheKey(Rename(Scan("R"), {"x", "y"}), EvalMode::kSetNaive,
                         opts, db));
  EXPECT_NE(PlanCacheKey(Rename(Scan("R"), {"x", "y"}), EvalMode::kSetNaive,
                         opts, db),
            PlanCacheKey(Rename(Scan("R"), {"u", "v"}), EvalMode::kSetNaive,
                         opts, db));
  EXPECT_NE(PlanCacheKey(Scan("R"), EvalMode::kSetNaive, opts, db),
            PlanCacheKey(Scan("R"), EvalMode::kSetSql, opts, db));
  // α-renamed: same shape, different attribute names — attribute names
  // are semantic (they define the output schema), so these must not
  // collide on one entry.
  auto a = cache.CompileCached(Rename(Scan("R"), {"x", "y"}),
                               EvalMode::kSetNaive, opts, db);
  auto b = cache.CompileCached(Rename(Scan("R"), {"u", "v"}),
                               EvalMode::kSetNaive, opts, db);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_NE(a->get(), b->get());
  EXPECT_EQ((*a)->root->attrs, (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ((*b)->root->attrs, (std::vector<std::string>{"u", "v"}));
  // Mode and option changes key separately too (the options are baked
  // into the compiled plan).
  AlgPtr q = Select(Scan("R"), CEq("R_a", "R_b"));
  (void)cache.CompileCached(q, EvalMode::kSetNaive, opts, db);
  (void)cache.CompileCached(q, EvalMode::kSetSql, opts, db);
  EvalOptions other = opts;
  other.enable_selection_pushdown = false;
  (void)cache.CompileCached(q, EvalMode::kSetNaive, other, db);
  EXPECT_EQ(cache.stats().misses, 5u);
  // num_threads participates via its *resolved* value: 0 and
  // hardware_concurrency() share one entry.
  EvalOptions zero = opts;
  zero.num_threads = 0;
  EvalOptions hw = opts;
  hw.num_threads = ResolveNumThreads(0);
  EXPECT_EQ(PlanCacheKey(q, EvalMode::kSetNaive, zero, db),
            PlanCacheKey(q, EvalMode::kSetNaive, hw, db));
  (void)cache.CompileCached(q, EvalMode::kSetNaive, zero, db);
  uint64_t misses = cache.stats().misses;
  (void)cache.CompileCached(q, EvalMode::kSetNaive, hw, db);
  EXPECT_EQ(cache.stats().misses, misses);
}

TEST(PlanCacheTest, SchemaChangeInvalidatesAndClearDropsEntries) {
  std::mt19937_64 rng(14);
  Database db = RandomDatabase(rng);
  PlanCache cache;
  EvalOptions opts;
  AlgPtr q = Project(Scan("R"), {"R_a"});
  (void)cache.CompileCached(q, EvalMode::kSetNaive, opts, db);
  (void)cache.CompileCached(q, EvalMode::kSetNaive, opts, db);
  EXPECT_EQ(cache.stats().hits, 1u);
  // Same rows, different schema: the scanned-schema bytes in the key
  // change, so the next lookup recompiles against the new schema.
  Relation renamed = db.at("R");
  ASSERT_TRUE(renamed.RenameAttrs({"R_a", "R_z"}).ok());
  db.Put("R", std::move(renamed));
  auto recompiled = cache.CompileCached(q, EvalMode::kSetNaive, opts, db);
  ASSERT_TRUE(recompiled.ok());
  EXPECT_EQ(cache.stats().misses, 2u);
  auto res = Execute(*recompiled, db);
  ASSERT_TRUE(res.ok());
  // A schema change that breaks the query surfaces the compile error
  // instead of serving the stale plan.
  Relation narrow({"R_z"});
  db.Put("R", std::move(narrow));
  auto broken = cache.CompileCached(q, EvalMode::kSetNaive, opts, db);
  EXPECT_FALSE(broken.ok());
  // Clear() drops entries; the next lookup misses again.
  cache.Clear();
  EXPECT_EQ(cache.stats().size, 0u);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsedBeyondCapacity) {
  std::mt19937_64 rng(15);
  Database db = RandomDatabase(rng);
  PlanCache cache(/*capacity=*/2);
  EvalOptions opts;
  AlgPtr q1 = Project(Scan("R"), {"R_a"});
  AlgPtr q2 = Project(Scan("R"), {"R_b"});
  AlgPtr q3 = Project(Scan("S"), {"S_a"});
  (void)cache.CompileCached(q1, EvalMode::kSetNaive, opts, db);
  (void)cache.CompileCached(q2, EvalMode::kSetNaive, opts, db);
  (void)cache.CompileCached(q1, EvalMode::kSetNaive, opts, db);  // refresh q1
  (void)cache.CompileCached(q3, EvalMode::kSetNaive, opts, db);  // evicts q2
  PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.size, 2u);
  EXPECT_EQ(s.evictions, 1u);
  (void)cache.CompileCached(q1, EvalMode::kSetNaive, opts, db);
  EXPECT_EQ(cache.stats().hits, 2u);  // q1 survived the eviction
  (void)cache.CompileCached(q2, EvalMode::kSetNaive, opts, db);
  EXPECT_EQ(cache.stats().misses, 4u);  // q2 did not
}

TEST(PlanCacheTest, ConcurrentLookupsFromManyThreads) {
  std::mt19937_64 rng(16);
  Database db = RandomDatabase(rng);
  PlanCache cache;
  const std::vector<AlgPtr> queries = testing_util::QueryZoo();
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      EvalOptions opts;
      for (int i = 0; i < kIters; ++i) {
        const AlgPtr& q = queries[(w + i) % queries.size()];
        auto plan = cache.CompileCached(q, EvalMode::kSetNaive, opts, db);
        if (!plan.ok() || !(*plan)->root) {
          failures.fetch_add(1);
          continue;
        }
        auto res = Execute(*plan, db);
        if (!res.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(failures.load(), 0);
  PlanCacheStats s = cache.stats();
  // Every lookup is accounted exactly once (racing cold-key compiles may
  // add extra misses but never lose a count).
  EXPECT_EQ(s.hits + s.misses,
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_LE(s.size, s.capacity);
}

TEST(PlanCacheTest, GlobalCacheServesTheEvalWrappers) {
  std::mt19937_64 rng(17);
  Database db = RandomDatabase(rng);
  AlgPtr q = Select(Product(Scan("R"), Rename(Scan("S"), {"S_x", "S_y"})),
                    CEq("R_b", "S_x"));
  PlanCacheStats before = PlanCache::Global().stats();
  EvalOptions opts;  // use_plan_cache defaults to true
  auto r1 = EvalSet(q, db, opts);
  auto r2 = EvalSet(q, db, opts);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_TRUE(r1->IdenticalTo(*r2));
  PlanCacheStats after = PlanCache::Global().stats();
  EXPECT_GE(after.hits, before.hits + 1);
  // Opting out recompiles per call and never touches the counters.
  EvalOptions uncached;
  uncached.use_plan_cache = false;
  PlanCacheStats mid = PlanCache::Global().stats();
  auto r3 = EvalSet(q, db, uncached);
  ASSERT_TRUE(r3.ok());
  PlanCacheStats end = PlanCache::Global().stats();
  EXPECT_EQ(mid.hits + mid.misses, end.hits + end.misses);
}

TEST(PlanExecTest, ParallelJoinHonoursBudget) {
  Database db;
  Relation l({"a", "k"}), r({"k2", "b"});
  for (int i = 0; i < 1200; ++i) {
    l.Add({Value::Int(i), Value::Int(i % 8)});
    r.Add({Value::Int(i % 8), Value::Int(i)});
  }
  db.Put("L", l);
  db.Put("Rr", r);
  // 8 distinct keys with 150 rows per side each: 180000 distinct pairs,
  // far beyond the budget — every chunk must abort promptly.
  EvalOptions opts;
  opts.num_threads = 4;
  opts.max_tuples = 10;
  auto res = EvalSet(Join(Scan("L"), Scan("Rr"), CEq("k", "k2")), db, opts);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
}

// Regression for the difference_parallel non-speedup: at the benchmark's
// committed 16k-tuple scale (weight ≈ 26k left+right rows) the hash-probe
// difference lost to pool dispatch at 4 threads (1.01 ms @1t vs 1.05 ms
// @4t). The per-op grain must keep that shape sequential under the default
// parallel_min_rows while still going parallel at genuinely large scale,
// and parallel_min_rows = 0 (the fuzzer / unit-test override) must keep
// forcing the parallel paths on any input.
TEST(ParallelPolicyTest, DifferenceGrainKeepsBenchScaleSequential) {
  constexpr size_t kDefaultMinRows = EvalOptions{}.parallel_min_rows;
  // The committed bench shape: |L| ≈ 16k, |R| ≈ 10k ⇒ weight ≈ 26k.
  EXPECT_FALSE(ChunkParallelismProfitable(4, 15925, 26101, kDefaultMinRows,
                                          ChunkOp::kDifference));
  // Genuinely large inputs still split across the pool.
  EXPECT_TRUE(ChunkParallelismProfitable(4, 100'000, 200'000, kDefaultMinRows,
                                         ChunkOp::kDifference));
  // Tests force the parallel paths on tiny inputs with min_rows = 0.
  EXPECT_TRUE(
      ChunkParallelismProfitable(4, 100, 200, 0, ChunkOp::kDifference));
  EXPECT_TRUE(ChunkParallelismProfitable(8, 2, 4, 0, ChunkOp::kDifference));
  // Single-threaded or single-row inputs never dispatch.
  EXPECT_FALSE(ChunkParallelismProfitable(1, 100'000, 200'000, 0,
                                          ChunkOp::kDifference));
  EXPECT_FALSE(
      ChunkParallelismProfitable(4, 1, 1'000'000, 0, ChunkOp::kDifference));
}

TEST(ParallelPolicyTest, PairCountingOpsKeepUnitGrain) {
  constexpr size_t kDefaultMinRows = EvalOptions{}.parallel_min_rows;
  // The NL join counts pairs: the committed bench shape (1.2k × 1.2k ≈
  // 1.44M pairs) stays parallel — its @4t speedup is real (529 µs → 224 µs
  // in BENCH_baseline).
  EXPECT_TRUE(ChunkParallelismProfitable(4, 1200, 1'440'000, kDefaultMinRows,
                                         ChunkOp::kNLJoin));
  EXPECT_TRUE(ChunkParallelismProfitable(4, 16'000, 26'000, kDefaultMinRows,
                                         ChunkOp::kUnifySemiJoin));
  EXPECT_EQ(ChunkGrain(ChunkOp::kNLJoin), 1u);
  EXPECT_EQ(ChunkGrain(ChunkOp::kUnifySemiJoin), 1u);
  EXPECT_GT(ChunkGrain(ChunkOp::kDifference), 1u);
}

// The hash join keeps its threshold of build + probe rows ≥
// parallel_min_rows (grain 1). Intersection and the semijoins/antijoins
// (SQL's [NOT] IN among them) cost one hash probe per row, like the
// difference, and take its grain.
TEST(ParallelPolicyTest, ChunkedHashProbeOpsTakeTheDifferenceGrain) {
  constexpr size_t kDefaultMinRows = EvalOptions{}.parallel_min_rows;
  EXPECT_EQ(ChunkGrain(ChunkOp::kHashJoin), 1u);
  EXPECT_TRUE(ChunkParallelismProfitable(4, 600, kDefaultMinRows,
                                         kDefaultMinRows, ChunkOp::kHashJoin));
  EXPECT_FALSE(ChunkParallelismProfitable(
      4, 600, kDefaultMinRows - 1, kDefaultMinRows, ChunkOp::kHashJoin));
  for (ChunkOp op : {ChunkOp::kIntersect, ChunkOp::kSemiJoin}) {
    EXPECT_EQ(ChunkGrain(op), ChunkGrain(ChunkOp::kDifference));
    EXPECT_EQ(ChunkGrain(op), 64u);
    // The difference's bench shape stays sequential for them too.
    EXPECT_FALSE(
        ChunkParallelismProfitable(4, 15925, 26101, kDefaultMinRows, op));
    EXPECT_TRUE(ChunkParallelismProfitable(4, 2, 4, 0, op));
  }
}

}  // namespace
}  // namespace incdb
