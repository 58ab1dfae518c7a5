// Tests for the plan verifier (src/eval/verify.h). Two halves:
//
//  * Zero-findings sweeps: every plan the compiler produces over the
//    QueryZoo, the sugar corpus, 150 seeded random queries and parameter
//    templates (before AND after binding) must pass VerifyPlan — across
//    all three evaluation modes and a matrix of rewrite-pass toggles. The verifier is also wired into Compile /
//    BindPlanParams / the plan cache / delta propagation in Debug builds,
//    so the rest of the test suite doubles as a corpus there; this sweep
//    keeps the coverage in every build type.
//
//  * Negatives: one hand-corrupted plan per check class — bad projection
//    index, a condition node without its program, cyclic DAG share,
//    bogus maintainable, malformed predicate register program, uncovered
//    parameter slots, wrong scanned_rels / uses_dom, stale refcounts,
//    catalog mismatch, out-of-range join keys, a null-aware semijoin
//    without keys, unresolved num_threads —
//    each rejected with a kInternal diagnostic naming the offending node
//    by its root path.

#include "eval/verify.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algebra/builder.h"
#include "eval/batch.h"
#include "eval/eval.h"
#include "eval/plan.h"
#include "tests/testing_util.h"

namespace incdb {

/// Write access to a compiled register program (friend of BatchPredicate)
/// so the negatives can plant each defect class Validate() must catch.
struct BatchPredicateTestPeer {
  static std::vector<BatchPredicate::Insn>& prog(BatchPredicate& bp) {
    return bp.prog_;
  }
  static uint32_t& n_regs(BatchPredicate& bp) { return bp.n_regs_; }
  static std::vector<size_t>& referenced(BatchPredicate& bp) {
    return bp.referenced_;
  }
};

namespace {

using testing_util::QueryZoo;
using testing_util::RandomDatabase;
using testing_util::RandomQueryGen;

constexpr EvalMode kModes[] = {EvalMode::kSetNaive, EvalMode::kBagNaive,
                               EvalMode::kSetSql};

std::vector<EvalOptions> ToggleMatrix() {
  EvalOptions all_on;
  EvalOptions all_off;
  all_off.enable_hash_join = false;
  all_off.enable_or_expansion = false;
  all_off.enable_projection_fusion = false;
  all_off.enable_unify_index = false;
  all_off.enable_selection_pushdown = false;
  EvalOptions no_fusion;  // keeps σ/π separate but joins hashed
  no_fusion.enable_projection_fusion = false;
  no_fusion.enable_or_expansion = false;
  return {all_on, all_off, no_fusion};
}

/// QueryZoo plus every sugar operator and the two operators the random
/// generator excludes (÷ and Dom).
std::vector<AlgPtr> SweepCorpus() {
  std::vector<AlgPtr> corpus = QueryZoo();
  AlgPtr r = Scan("R");
  AlgPtr s = Scan("S");
  AlgPtr t = Scan("T");
  corpus.push_back(Join(r, s, CEq("R_b", "S_a")));
  corpus.push_back(Semijoin(r, s, CEq("R_a", "S_a")));
  corpus.push_back(Antijoin(r, s, CEq("R_a", "S_a")));
  corpus.push_back(
      InPredicate(Project(r, {"R_a"}), t, {"R_a"}, {"T_a"}, CTrue()));
  corpus.push_back(
      NotInPredicate(Project(r, {"R_a"}), t, {"R_a"}, {"T_a"}, CTrue()));
  corpus.push_back(AntijoinUnify(r, s));
  corpus.push_back(Distinct(Project(r, {"R_a"})));
  corpus.push_back(Division(r, Rename(Project(s, {"S_b"}), {"R_b"})));
  corpus.push_back(Diff(DomK({"R_a"}), Project(r, {"R_a"})));
  // Pushdown + OR-expansion shapes (shared compiled subtrees → DAG).
  corpus.push_back(Select(Product(r, Rename(s, {"S_x", "S_y"})),
                          CAnd(CEq("R_b", "S_x"),
                               CNeqc("R_a", Value::Int(1)))));
  corpus.push_back(Project(
      Select(Product(r, Rename(s, {"S_x", "S_y"})),
             COr(CEq("R_b", "S_x"), CIsNull("S_y"))),
      {"R_a", "S_y"}));
  return corpus;
}

PlanPtr MustCompile(const AlgPtr& q, const Database& db,
                    EvalMode mode = EvalMode::kSetNaive,
                    const EvalOptions& opts = {}) {
  auto plan = Compile(q, mode, opts, db);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return plan.ok() ? *plan : nullptr;
}

void CountEdges(const PhysPtr& n,
                std::unordered_map<const PhysNode*, uint32_t>* counts) {
  uint32_t& c = (*counts)[n.get()];
  if (++c > 1) return;
  if (n->left) CountEdges(n->left, counts);
  if (n->right) CountEdges(n->right, counts);
}

/// Re-roots a copied plan and recomputes the parent-edge map so only the
/// planted defect trips the verifier.
Plan WithRoot(const Plan& base, PhysPtr root) {
  Plan p = base;
  p.root = std::move(root);
  p.refcount.clear();
  CountEdges(p.root, &p.refcount);
  return p;
}

void ExpectRejected(const Plan& plan, const Database* db,
                    const std::string& needle) {
  Status st = VerifyPlan(plan, db);
  ASSERT_FALSE(st.ok()) << "verifier accepted a corrupted plan (wanted: "
                        << needle << ")";
  EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
  EXPECT_NE(st.message().find("plan verifier"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("root"), std::string::npos)
      << "diagnostic lacks a node path: " << st.message();
  EXPECT_NE(st.message().find(needle), std::string::npos) << st.message();
}

// ---------------------------------------------------------------------------
// Zero-findings sweeps.
// ---------------------------------------------------------------------------

TEST(VerifySweep, ZooAndSugarAcrossModesAndToggles) {
  std::mt19937_64 rng(7);
  Database db = RandomDatabase(rng);
  std::vector<AlgPtr> corpus = SweepCorpus();
  size_t verified = 0;
  for (EvalMode mode : kModes) {
    for (const EvalOptions& opts : ToggleMatrix()) {
      for (const AlgPtr& q : corpus) {
        auto plan = Compile(q, mode, opts, db);
        if (!plan.ok()) continue;  // ÷ is unsupported under EvalSql etc.
        Status st = VerifyPlan(*plan, &db);
        ASSERT_TRUE(st.ok()) << st.ToString();
        ++verified;
      }
    }
  }
  // Most of the corpus compiles in most configurations; a regression that
  // silently skips the sweep would trip this floor.
  EXPECT_GE(verified, corpus.size() * 6);
}

TEST(VerifySweep, RandomQueriesZeroFindings) {
  std::mt19937_64 rng(20260808);
  Database db = RandomDatabase(rng);
  RandomQueryGen gen(rng);
  std::vector<EvalOptions> toggles = ToggleMatrix();
  for (int i = 0; i < 150; ++i) {
    AlgPtr q = gen.Gen(1 + i % 4);
    auto plan = Compile(q, kModes[i % 3], toggles[i % toggles.size()], db);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    Status st = VerifyPlan(*plan, &db);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
}

TEST(VerifySweep, ParamTemplatesBeforeAndAfterBinding) {
  std::mt19937_64 rng(11);
  Database db = RandomDatabase(rng);
  std::vector<AlgPtr> templates;
  templates.push_back(Select(Scan("R"), CEqc("R_a", Value::Param(0))));
  templates.push_back(Select(Scan("R"), COr(CEqc("R_a", Value::Param(0)),
                                            CNeqc("R_b", Value::Param(1)))));
  templates.push_back(Join(Scan("R"), Scan("S"),
                           CAnd(CEq("R_b", "S_a"),
                                CGec("S_b", Value::Param(0)))));
  for (const AlgPtr& q : templates) {
    for (EvalMode mode : kModes) {
      PlanPtr plan = MustCompile(q, db, mode);
      ASSERT_NE(plan, nullptr);
      EXPECT_GE(plan->param_count, 1u);
      Status st = VerifyPlan(plan, &db);
      ASSERT_TRUE(st.ok()) << st.ToString();
      auto bound = BindPlanParams(plan, {Value::Int(1), Value::Int(2)});
      ASSERT_TRUE(bound.ok()) << bound.status().ToString();
      EXPECT_EQ((*bound)->param_count, 0u);
      st = VerifyPlan(*bound, &db);
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
  }
}

TEST(VerifyWiring, RuntimeToggleMatchesEnvironment) {
  const char* env = std::getenv("INCDB_VERIFY_PLANS");
  bool expect = env == nullptr || std::string(env) != "0";
  EXPECT_EQ(PlanVerificationEnabled(), expect);
}

TEST(VerifyWiring, NullPlanRejected) {
  Status st = VerifyPlan(PlanPtr{});
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// Negatives: one corrupted plan per check class.
// ---------------------------------------------------------------------------

TEST(VerifyNegative, ProjectionIndexOutOfRange) {
  std::mt19937_64 rng(1);
  Database db = RandomDatabase(rng);
  PlanPtr plan = MustCompile(Project(Scan("R"), {"R_a"}), db);
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->root->op, PhysOp::kProject);
  auto bad = std::make_shared<PhysNode>(*plan->root);
  bad->proj_pos = {5};
  ExpectRejected(WithRoot(*plan, bad), &db, "out of range");
}

TEST(VerifyNegative, ProjectionNameMismatch) {
  std::mt19937_64 rng(1);
  Database db = RandomDatabase(rng);
  PlanPtr plan = MustCompile(Project(Scan("R"), {"R_a"}), db);
  ASSERT_NE(plan, nullptr);
  auto bad = std::make_shared<PhysNode>(*plan->root);
  bad->proj_pos = {1};  // position 1 is R_b, output schema says R_a
  ExpectRejected(WithRoot(*plan, bad), &db, "names input position");
}

TEST(VerifyNegative, ConditionNodeWithoutProgram) {
  std::mt19937_64 rng(2);
  Database db = RandomDatabase(rng);
  AlgPtr sxy = Rename(Scan("S"), {"S_x", "S_y"});
  // Every condition-bearing operator evaluates its condition through its
  // program: σ, a hash join with a residual, ⋉ and a correlated IN, which
  // compiles to a keyed ⋉.
  const std::pair<AlgPtr, PhysOp> cases[] = {
      {Select(Scan("R"), CEqc("R_a", Value::Int(0))), PhysOp::kFilterSel},
      {Join(Scan("R"), sxy, CAnd(CEq("R_b", "S_x"), CLt("R_a", "S_y"))),
       PhysOp::kHashJoin},
      {Semijoin(Scan("R"), sxy, CLt("R_a", "S_y")), PhysOp::kHashSemi},
      {InPredicate(Scan("R"), sxy, {"R_a"}, {"S_x"}, CEq("R_b", "S_y")),
       PhysOp::kHashSemi}};
  for (const auto& [q, op] : cases) {
    PlanPtr plan = MustCompile(q, db);
    ASSERT_NE(plan, nullptr);
    ASSERT_EQ(plan->root->op, op) << PlanToString(*plan);
    auto bad = std::make_shared<PhysNode>(*plan->root);
    bad->prog = nullptr;
    ExpectRejected(WithRoot(*plan, bad), &db, "missing predicate program");
  }
}

TEST(VerifyNegative, CondReferencesUnknownAttribute) {
  std::mt19937_64 rng(2);
  Database db = RandomDatabase(rng);
  PlanPtr plan =
      MustCompile(Select(Scan("R"), CEqc("R_a", Value::Int(0))), db);
  ASSERT_NE(plan, nullptr);
  auto bad = std::make_shared<PhysNode>(*plan->root);
  bad->cond = CEq("R_a", "ghost");
  ExpectRejected(WithRoot(*plan, bad), &db, "outside the input schema");
}

TEST(VerifyNegative, CyclicShare) {
  auto a = std::make_shared<PhysNode>();
  auto b = std::make_shared<PhysNode>();
  a->op = PhysOp::kDistinct;
  a->attrs = {"x"};
  b->op = PhysOp::kDistinct;
  b->attrs = {"x"};
  a->left = b;
  b->left = a;  // the cycle
  Plan plan;
  plan.root = a;
  plan.mode = EvalMode::kSetNaive;
  plan.opts.num_threads = 1;
  Status st = VerifyPlan(plan);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("cycle"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("root"), std::string::npos) << st.message();
  // Break the cycle so the shared_ptr pair can be reclaimed (keeps the
  // LeakSanitizer job quiet).
  a->left = nullptr;
}

TEST(VerifyNegative, BogusMaintainable) {
  std::mt19937_64 rng(3);
  Database db = RandomDatabase(rng);
  // Difference is outside the delta-propagation subset.
  PlanPtr diff = MustCompile(Diff(Scan("R"), Scan("S")), db);
  ASSERT_NE(diff, nullptr);
  ASSERT_FALSE(diff->maintainable);
  Plan lying = *diff;
  lying.maintainable = true;
  ExpectRejected(lying, &db, "maintainable set");

  // A plain scan is maintainable; claiming otherwise is also a defect.
  PlanPtr scan = MustCompile(Scan("R"), db);
  ASSERT_NE(scan, nullptr);
  ASSERT_TRUE(scan->maintainable);
  Plan denying = *scan;
  denying.maintainable = false;
  ExpectRejected(denying, &db, "maintainable unset");
}

TEST(VerifyNegative, MalformedPredicateProgram) {
  const std::vector<std::string> attrs = {"a", "b"};
  CondPtr cond = CAnd(CEqc("a", Value::Int(1)), CNeqc("b", Value::Int(2)));
  auto make = [&] {
    auto bp = BatchPredicate::Make(cond, attrs, CondMode::kNaive);
    EXPECT_TRUE(bp.ok()) << bp.status().ToString();
    return *bp;
  };
  {
    BatchPredicate bp = make();
    ASSERT_TRUE(bp.Validate(attrs.size()).ok());
  }
  {  // Connective breaking the postorder stack discipline.
    BatchPredicate bp = make();
    auto& prog = BatchPredicateTestPeer::prog(bp);
    ASSERT_EQ(prog.back().kind, CondKind::kAnd);
    prog.back().dst = 1;
    Status st = bp.Validate(attrs.size());
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("stack discipline"), std::string::npos)
        << st.message();
  }
  {  // Connective with an empty stack.
    BatchPredicate bp = make();
    auto& prog = BatchPredicateTestPeer::prog(bp);
    prog.erase(prog.begin(), prog.begin() + 2);
    Status st = bp.Validate(attrs.size());
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("underflow"), std::string::npos)
        << st.message();
  }
  {  // Column operand past the input arity.
    BatchPredicate bp = make();
    BatchPredicateTestPeer::prog(bp)[0].col = 9;
    Status st = bp.Validate(attrs.size());
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("out of range"), std::string::npos)
        << st.message();
  }
  {  // Unbound parameter left in a constant operand.
    BatchPredicate bp = make();
    BatchPredicateTestPeer::prog(bp)[0].constant = Value::Param(0);
    Status st = bp.Validate(attrs.size());
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("parameter"), std::string::npos)
        << st.message();
  }
  {  // Register count disagreeing with the program's stack depth.
    BatchPredicate bp = make();
    BatchPredicateTestPeer::n_regs(bp) = 7;
    Status st = bp.Validate(attrs.size());
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("register count"), std::string::npos)
        << st.message();
  }
  {  // Dangling value left on the stack (no combining connective).
    BatchPredicate bp = make();
    BatchPredicateTestPeer::prog(bp).pop_back();
    Status st = bp.Validate(attrs.size());
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("on the register stack"), std::string::npos)
        << st.message();
  }
  {  // Opcode outside the interpreter's dispatch table.
    BatchPredicate bp = make();
    BatchPredicateTestPeer::prog(bp)[0].kind = static_cast<CondKind>(0xEE);
    Status st = bp.Validate(attrs.size());
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("unknown opcode"), std::string::npos)
        << st.message();
  }
}

TEST(VerifyNegative, CorruptedNodeProgramNamesTheNode) {
  std::mt19937_64 rng(3);
  Database db = RandomDatabase(rng);
  PlanPtr plan = MustCompile(
      Distinct(Select(Scan("R"), CEqc("R_a", Value::Int(0)))), db);
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->root->left->op, PhysOp::kFilterSel);
  ASSERT_NE(plan->root->left->prog, nullptr);
  BatchPredicate prog = *plan->root->left->prog;
  BatchPredicateTestPeer::prog(prog)[0].col = 9;  // past the input arity
  auto filter = std::make_shared<PhysNode>(*plan->root->left);
  filter->prog = std::make_shared<const BatchPredicate>(std::move(prog));
  auto root = std::make_shared<PhysNode>(*plan->root);
  root->left = filter;
  ExpectRejected(WithRoot(*plan, root), &db, "root.left (FilterSel)");
  ExpectRejected(WithRoot(*plan, root), &db, "malformed predicate program");
}

TEST(VerifyNegative, ParamCountDoesNotCoverCondition) {
  std::mt19937_64 rng(4);
  Database db = RandomDatabase(rng);
  PlanPtr plan =
      MustCompile(Select(Scan("R"), CEqc("R_a", Value::Param(1))), db);
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->param_count, 2u);
  Plan bad = *plan;
  bad.param_count = 0;
  ExpectRejected(bad, &db, "param_count is 0");
}

TEST(VerifyNegative, WrongScannedRels) {
  std::mt19937_64 rng(5);
  Database db = RandomDatabase(rng);
  PlanPtr plan = MustCompile(Join(Scan("R"), Scan("S"), CEq("R_b", "S_a")), db);
  ASSERT_NE(plan, nullptr);
  Plan missing = *plan;
  missing.scanned_rels = {"R"};
  ExpectRejected(missing, &db, "scanned_rels");
  Plan phantom = *plan;
  phantom.scanned_rels = {"R", "S", "Z"};
  ExpectRejected(phantom, &db, "scanned_rels");
}

TEST(VerifyNegative, UsesDomFlagDisagrees) {
  std::mt19937_64 rng(5);
  Database db = RandomDatabase(rng);
  PlanPtr plan = MustCompile(Scan("R"), db);
  ASSERT_NE(plan, nullptr);
  Plan bad = *plan;
  bad.uses_dom = true;
  ExpectRejected(bad, &db, "uses_dom");
}

TEST(VerifyNegative, StaleRefcounts) {
  std::mt19937_64 rng(6);
  Database db = RandomDatabase(rng);
  PlanPtr plan = MustCompile(Join(Scan("R"), Scan("S"), CEq("R_b", "S_a")), db);
  ASSERT_NE(plan, nullptr);
  Plan bad = *plan;
  bad.refcount.clear();
  ExpectRejected(bad, &db, "refcount");
}

TEST(VerifyNegative, CatalogMismatch) {
  std::mt19937_64 rng(8);
  Database db = RandomDatabase(rng);
  PlanPtr plan = MustCompile(Scan("R"), db);
  ASSERT_NE(plan, nullptr);
  // Same relation name, different schema.
  Database reshaped;
  reshaped.Put("R", Relation({"R_a", "R_b", "R_c"}).ToSet());
  ExpectRejected(*plan, &reshaped, "catalog schema");
  // Relation dropped entirely.
  Database empty;
  ExpectRejected(*plan, &empty, "not in the catalog");
}

TEST(VerifyNegative, JoinKeyOutOfRange) {
  std::mt19937_64 rng(9);
  Database db = RandomDatabase(rng);
  PlanPtr plan = MustCompile(Join(Scan("R"), Scan("S"), CEq("R_b", "S_a")), db);
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->root->op, PhysOp::kHashJoin);
  auto bad = std::make_shared<PhysNode>(*plan->root);
  bad->lkeys = {9};
  ExpectRejected(WithRoot(*plan, bad), &db, "out of range");
  auto keyless = std::make_shared<PhysNode>(*plan->root);
  keyless->lkeys.clear();
  keyless->rkeys.clear();
  ExpectRejected(WithRoot(*plan, keyless), &db, "without key columns");
}

TEST(VerifyNegative, NullAwareSemijoinWithoutKeys) {
  std::mt19937_64 rng(11);
  Database db = RandomDatabase(rng);
  AlgPtr sxy = Rename(Scan("S"), {"S_x", "S_y"});
  // SQL's NOT IN keys on R_a = S_x ∨ null(R_a) ∨ null(S_x), null-aware.
  PlanPtr plan = MustCompile(
      NotInPredicate(Scan("R"), sxy, {"R_a"}, {"S_x"}, CTrue()), db,
      EvalMode::kSetSql);
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->root->op, PhysOp::kHashSemi) << PlanToString(*plan);
  ASSERT_TRUE(plan->root->null_aware) << PlanToString(*plan);
  EXPECT_TRUE(VerifyPlan(*plan, &db).ok());
  auto keyless = std::make_shared<PhysNode>(*plan->root);
  keyless->lkeys.clear();
  keyless->rkeys.clear();
  ExpectRejected(WithRoot(*plan, keyless), &db,
                 "null-aware semijoin without key columns");
}

TEST(VerifyNegative, UnresolvedNumThreads) {
  std::mt19937_64 rng(10);
  Database db = RandomDatabase(rng);
  PlanPtr plan = MustCompile(Scan("R"), db);
  ASSERT_NE(plan, nullptr);
  Plan bad = *plan;
  bad.opts.num_threads = 0;
  ExpectRejected(bad, &db, "num_threads");
}

}  // namespace
}  // namespace incdb
