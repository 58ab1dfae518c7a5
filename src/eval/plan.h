#ifndef INCDB_EVAL_PLAN_H_
#define INCDB_EVAL_PLAN_H_

/// \file plan.h
/// \brief The physical-plan layer: compile once, execute many times.
///
/// Evaluation is split into two phases:
///
///  1. Compile(query, mode, options, db) lowers the relational-algebra tree
///     into a DAG of *typed physical operators* and runs the rewrite
///     passes that the tree-walking evaluator used to re-derive on every
///     call:
///       * conjunct split — top-level equality conjuncts of a join
///         condition become hash-join keys (enable_hash_join);
///       * join order — a σ/×/⋈ tree is flattened into its inputs and
///         conjuncts and rebuilt left-deep from its join graph, each
///         conjunct at the lowest join that covers it, so no connected
///         pair is left to a keyless product (always on);
///       * selection pushdown — one-sided conjuncts move below the join,
///         through products and renames, and right-only conjuncts below
///         a semijoin or antijoin (enable_selection_pushdown);
///       * projection fusion — π over a join-shaped child projects at emit
///         time; π over a plain σ becomes a FusedProjectFilter
///         (enable_projection_fusion);
///       * OR-expansion — a disjunctive join condition with no hashable
///         equality becomes a union of per-disjunct joins under set
///         semantics, each branch re-optimised (enable_or_expansion);
///       * EXISTS lowering — x̄ [NOT] IN (Q2 WHERE θ) is the ⋉ (▷) on
///         θ ∧ x̄ = ȳ, with SQL's NOT IN comparing xᵢ = yᵢ ∨ null(xᵢ) ∨
///         null(yᵢ) (InSemijoinCond, algebra/algebra.h); a ⋉/▷ without an
///         equality key takes those θ?-equalities, the shape of the Fig. 2(b)
///         ▷ rule, as null-aware keys; every ⋉/▷ reads its right input
///         past the π and δ on top of it, which change no answer, unless
///         that would expose a name the left side has (always on). A π∘σ
///         stays.
///     Every condition-bearing operator (σ, π∘σ, both joins, ⋉/▷) carries
///     its condition compiled once into the engine's one condition
///     evaluator, the columnar program of eval/batch.h. The database is
///     consulted for *schemas only*: a compiled plan can be executed
///     against any database with the same relation schemas.
///
///  2. Execute(plan, db) runs the operators. Leaf scans return a borrowed
///     RelationView over the database's flat rows (no copy), and an
///     operator that indexes such a view probes the key index its
///     relation state memoises (core/key_index.h); the binary
///     operators optionally split their outer rows into contiguous chunks
///     across a small thread pool (EvalOptions::num_threads) and return
///     the sequential rows in order at any thread count. A hash join over
///     a hash join that nothing else reads may probe with the lower
///     join's rows as they are emitted instead of storing them first.
///
/// EvalSet / EvalBag / EvalSql (eval/eval.h) are thin compile+execute
/// wrappers over this layer, and the FO evaluator (logic/fo_eval.cpp)
/// shares ScanResolver for copy-free scans. Every plan is run by the
/// executor; the c-table evaluator (ctables/ceval.cpp) walks the algebra
/// itself.

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/algebra.h"
#include "core/database.h"
#include "core/exec_context.h"
#include "core/relation.h"
#include "core/status.h"
#include "eval/eval.h"

namespace incdb {

/// The three evaluation disciplines of the paper (see eval/eval.h).
enum class EvalMode : uint8_t { kSetNaive, kBagNaive, kSetSql };

/// Typed physical operators.
enum class PhysOp : uint8_t {
  kScanView,           ///< Borrowed view of a base relation.
  kFilterSel,          ///< σ with a compiled program.
  kFusedProjectFilter, ///< π(σ(child)) in one pass, projecting at emit time.
  kProject,            ///< Materialising projection.
  kRename,             ///< Attribute replacement (copy-free on views).
  kHashJoin,           ///< Equi hash join + residual predicate.
  kNLJoin,             ///< Nested-loop join / product with predicate.
  kUnion,              ///< Bag union; collapsed under set semantics.
  kHashDiff,           ///< Difference (hash under naive/bag, NOT-IN 3VL under SQL).
  kHashIntersect,      ///< Intersection (hash; IN 3VL under SQL).
  kDivision,           ///< Q1 ÷ Q2.
  kUnifySemiJoin,      ///< ⋉⇑ with the null-mask unifiability index.
  kHashSemi,           ///< ⋉ / ▷ / [NOT] IN (EXISTS, hashed keys).
  kDom,                ///< Dom^k over the active domain.
  kDistinct,           ///< Multiplicity collapse.
};

const char* ToString(PhysOp op);

/// True for the monotone operators delta propagation (eval/delta.h)
/// understands; any other op makes a plan non-maintainable. The plan
/// verifier (eval/verify.h) checks Plan::maintainable against exactly this
/// predicate, so the two can never drift apart silently.
bool OpIsMaintainable(PhysOp op);

class BatchPredicate;
struct PhysNode;
using PhysPtr = std::shared_ptr<const PhysNode>;

/// \brief One physical operator with statically resolved schema, attribute
/// positions and compiled predicates. Nodes are immutable and may be shared
/// (OR-expansion branches share their compiled inputs, forming a DAG).
struct PhysNode {
  PhysOp op;
  std::vector<std::string> attrs;  ///< Output schema.

  std::string rel_name;            ///< kScanView.
  CondPtr cond;                    ///< Filter / join or ⋉/▷ residual.
  /// `cond` compiled into a columnar register program (eval/batch.h), the
  /// one form every condition-bearing operator evaluates: σ and π∘σ over
  /// their input's schema; both joins and ⋉/▷ over the joint
  /// (left·right) schema, one outer row against windows of candidate
  /// partners (PartnerSelect, eval/kernel.h). Compiled once — by Compile,
  /// or by BindPlanParams for a parameterised condition, which derives the
  /// input schema from the children — and shared by every copy of the
  /// node; callers evaluate it with their own scratch, so pool workers
  /// share it. Null on every other operator. While `cond` still carries
  /// parameter placeholders the program is a validation artifact only:
  /// Execute refuses plans with unbound parameters.
  std::shared_ptr<const BatchPredicate> prog;

  std::vector<size_t> proj_pos;    ///< kProject / kFusedProjectFilter / fused join projection.
  bool fused_proj = false;         ///< Join nodes: proj_pos is active.
  bool proj_left_only = false;     ///< Fused projection touches only left columns.
  bool proj_right_only = false;    ///< Fused projection touches only right columns.
  size_t left_arity = 0;           ///< Join-like nodes: arity of the left input.

  std::vector<size_t> lkeys, rkeys;  ///< kHashJoin / kHashSemi key positions.
  bool anti = false;               ///< kHashSemi: antijoin.
  /// kHashSemi: the keys are θ?-equalities k = k' ∨ null(k) ∨ null(k'):
  /// a key column matches when equal or null on either side.
  bool null_aware = false;
  bool trivial_residual = false;   ///< kHashSemi: no residual predicate.
  /// kHashSemi: the residual reads only left columns, so the first key
  /// match decides it.
  bool residual_left_only = false;
  std::vector<size_t> keep_pos, div_l, div_r;  ///< kDivision alignment.

  size_t dom_arity = 0;            ///< kDom.
  std::vector<Value> dom_extra;    ///< kDom.

  PhysPtr left, right;
};

/// \brief A compiled plan: the operator DAG plus everything Execute needs.
struct Plan {
  PhysPtr root;
  EvalMode mode;
  EvalOptions opts;
  /// Parameter slots the plan still needs (1 + largest ?i mentioned).
  /// A plan with param_count > 0 is a *template*: Execute rejects it until
  /// BindPlanParams substitutes constants (producing a plan with 0).
  size_t param_count = 0;
  /// Parent-edge counts; nodes referenced more than once (OR-expansion
  /// sharing) are memoised during execution.
  std::unordered_map<const PhysNode*, uint32_t> refcount;
  /// Names of the base relations the plan scans (sorted, deduplicated) —
  /// together with uses_dom, the plan's *data-dependency footprint*. The
  /// result cache (eval/result_cache.h) stamps these with the executed
  /// snapshot's per-relation versions to fingerprint the inputs.
  std::vector<std::string> scanned_rels;
  /// True when the plan contains a Dom operator, whose output depends on
  /// the active domain of the *whole* database (any relation's change can
  /// change it) — such plans fingerprint on the database epoch instead.
  bool uses_dom = false;
  /// True when every operator of the DAG belongs to the monotone subset
  /// incremental result maintenance can propagate row-level deltas
  /// through (OpIsMaintainable: scan, filter, fused project-filter,
  /// project, rename, union, hash/NL join). Difference, intersection,
  /// division, semijoins, distinct and Dom are excluded — cached results
  /// of non-maintainable plans fall back to invalidation on mutation.
  bool maintainable = false;
};
using PlanPtr = std::shared_ptr<const Plan>;

/// Validates EvalOptions::num_threads: 0 resolves to
/// std::thread::hardware_concurrency() (1 when the runtime reports 0),
/// anything above kMaxEvalThreads clamps to kMaxEvalThreads. Compile()
/// applies this before storing the options in the plan, so the executor
/// and the plan-cache key always see the resolved value.
size_t ResolveNumThreads(size_t requested);

/// Lowers `q` into a physical plan for the given mode, running the rewrite
/// passes enabled in `opts` (with num_threads resolved via
/// ResolveNumThreads). The database provides relation schemas only;
/// no data is read. Compilation performs all schema validation (unknown
/// relations/attributes, arity mismatches, product disjointness), so
/// Execute only surfaces data-dependent errors (resource budgets).
/// EvalOptions::batch_size 0 is kInvalidArgument: it is the window every
/// operator sweeps by.
StatusOr<PlanPtr> Compile(const AlgPtr& q, EvalMode mode,
                          const EvalOptions& opts, const Database& db);

/// Substitutes parameter bindings into a compiled plan template: nodes on
/// a path to a parameterised condition (or Dom extra) are copied with the
/// condition bound and its program recompiled; every parameter-free
/// subtree is shared with the original plan. The result has
/// param_count == 0 and is independently executable — binding the same
/// template concurrently from many threads is safe (the template is never
/// mutated). Requires params.size() >= plan->param_count and every binding
/// to be a constant. This is deliberately *not* a compile: no rewrite pass
/// re-runs, so N bindings of one prepared query pay one Compile total.
StatusOr<PlanPtr> BindPlanParams(const PlanPtr& plan,
                                 const std::vector<Value>& params);

/// Runs a compiled plan against `db` (which must match the schemas the
/// plan was compiled against). Plans with unbound parameters are rejected
/// (bind them first via BindPlanParams). The ExecContext overload carries
/// a deadline / cancellation token / soft memory budget, observed by every
/// operator's hot loop on an amortized schedule; the two-argument form
/// runs unlimited.
StatusOr<Relation> Execute(const PlanPtr& plan, const Database& db);
StatusOr<Relation> Execute(const PlanPtr& plan, const Database& db,
                           const ExecContext& ctx);

/// Executes one node of `plan`'s DAG and materialises its output — the
/// streaming cursor (api/session.h) uses this for the non-streamable
/// prefix below the root operator chain.
StatusOr<Relation> ExecuteNode(const PlanPtr& plan, const PhysPtr& node,
                               const Database& db);
StatusOr<Relation> ExecuteNode(const PlanPtr& plan, const PhysPtr& node,
                               const Database& db, const ExecContext& ctx);

/// Number of operators of the given kind in the plan DAG (shared nodes
/// counted once) — used by plan-shape tests and the compile benchmarks.
size_t CountOps(const Plan& plan, PhysOp op);

/// Multi-line indented rendering of the operator DAG for debugging and
/// plan-shape assertions.
std::string PlanToString(const Plan& plan);

/// \brief Shared scan resolution: borrowed views of base relations.
///
/// Under set semantics a scan of a non-set base relation needs a one-off
/// multiplicity collapse; ScanResolver materialises that copy at most once
/// per relation and otherwise borrows the database's rows in place, with
/// the stored state's key-index memo (core/key_index.h). Used by the plan
/// executor and the FO evaluator (logic/fo_eval.cpp), whose atom scans
/// re-resolve inside quantifier loops.
class ScanResolver {
 public:
  explicit ScanResolver(const Database& db) : db_(&db) {}

  /// A view of relation `name`; with `collapse_to_set`, every multiplicity
  /// is 1 (borrowed whenever the stored relation is already a set).
  StatusOr<RelationView> Resolve(const std::string& name, bool collapse_to_set);

 private:
  const Database* db_;
  /// The collapsed copies of the resolved relations that are not sets.
  std::map<std::string, Relation> collapsed_;
};

}  // namespace incdb

#endif  // INCDB_EVAL_PLAN_H_
