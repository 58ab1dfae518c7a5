#include "eval/plan.h"

#include <algorithm>
#include <set>
#include <thread>
#include <unordered_set>
#include <utility>

#include "eval/batch.h"
#include "eval/verify.h"

namespace incdb {

const char* ToString(PhysOp op) {
  switch (op) {
    case PhysOp::kScanView:
      return "ScanView";
    case PhysOp::kFilterSel:
      return "FilterSel";
    case PhysOp::kFusedProjectFilter:
      return "FusedProjectFilter";
    case PhysOp::kProject:
      return "Project";
    case PhysOp::kRename:
      return "Rename";
    case PhysOp::kHashJoin:
      return "HashJoin";
    case PhysOp::kNLJoin:
      return "NLJoin";
    case PhysOp::kUnion:
      return "Union";
    case PhysOp::kHashDiff:
      return "HashDiff";
    case PhysOp::kHashIntersect:
      return "HashIntersect";
    case PhysOp::kDivision:
      return "Division";
    case PhysOp::kUnifySemiJoin:
      return "UnifySemiJoin";
    case PhysOp::kHashSemi:
      return "HashSemi";
    case PhysOp::kDom:
      return "Dom";
    case PhysOp::kDistinct:
      return "Distinct";
  }
  return "?";
}

namespace {

CondMode ToCondMode(EvalMode m) {
  return m == EvalMode::kSetSql ? CondMode::kSql : CondMode::kNaive;
}

/// Extracts top-level conjuncts of a condition, dropping trivial `true`s
/// (which would otherwise hide single-disjunction shapes from the
/// OR-expansion pass).
void Conjuncts(const CondPtr& c, std::vector<CondPtr>* out) {
  if (c->kind == CondKind::kAnd) {
    Conjuncts(c->left, out);
    Conjuncts(c->right, out);
  } else if (c->kind != CondKind::kTrue) {
    out->push_back(c);
  }
}

/// Extracts the disjuncts of a condition, however its ∨s associate.
void Disjuncts(const Condition& c, std::vector<const Condition*>* out) {
  if (c.kind == CondKind::kOr) {
    Disjuncts(*c.left, out);
    Disjuncts(*c.right, out);
  } else {
    out->push_back(&c);
  }
}

/// The equality a = b of a θ?-equality a = b ∨ null(a) ∨ null(b), its
/// disjuncts associated and ordered in any way; null for any other
/// condition.
const Condition* MaybeEquality(const Condition& c) {
  std::vector<const Condition*> d;
  Disjuncts(c, &d);
  const Condition* eq = nullptr;
  std::multiset<std::string> nulls;
  for (const Condition* x : d) {
    if (x->kind == CondKind::kEqAttrAttr) eq = x;
    if (x->kind == CondKind::kIsNull) nulls.insert(x->lhs);
  }
  if (d.size() != 3 || eq == nullptr) return nullptr;
  return nulls == std::multiset<std::string>{eq->lhs, eq->rhs} ? eq : nullptr;
}

/// Rewrites the attribute names of a condition through a rename mapping
/// (new name → old name), for pushing selections below ρ.
CondPtr RenameCondAttrs(const CondPtr& c,
                        const std::map<std::string, std::string>& to_old) {
  auto out = std::make_shared<Condition>(*c);
  if (c->left) out->left = RenameCondAttrs(c->left, to_old);
  if (c->right) out->right = RenameCondAttrs(c->right, to_old);
  auto translate = [&to_old](std::string* name) {
    auto it = to_old.find(*name);
    if (it != to_old.end()) *name = it->second;
  };
  const size_t operands = CondAttrOperands(c->kind);
  if (operands >= 1) translate(&out->lhs);
  if (operands == 2) translate(&out->rhs);
  return out;
}

/// True iff every attribute the condition mentions belongs to `attrs`.
bool CondWithin(const CondPtr& c, const std::vector<std::string>& attrs) {
  for (const std::string& a : CondAttrs(c)) {
    if (IndexOf(attrs, a) == attrs.size()) return false;
  }
  return true;
}

/// Compiles `node->cond` into the node's columnar program over its input
/// schema: the left input's, or left·right for the binary operators.
Status CompileNodeCond(PhysNode* node, CondMode mode) {
  std::vector<std::string> attrs = node->left->attrs;
  if (node->right) {
    attrs.insert(attrs.end(), node->right->attrs.begin(),
                 node->right->attrs.end());
  }
  auto prog = BatchPredicate::Make(node->cond, attrs, mode);
  if (!prog.ok()) return prog.status();
  node->prog = std::make_shared<const BatchPredicate>(std::move(*prog));
  return Status::OK();
}

class Compiler {
 public:
  Compiler(EvalMode mode, const EvalOptions& opts, const Database& db)
      : mode_(mode), opts_(opts), db_(db) {}

  StatusOr<PhysPtr> CompileNode(const AlgPtr& q) {
    switch (q->kind) {
      case OpKind::kScan:
        return CompileScan(q);
      case OpKind::kSelect:
        return CompileSelect(q);
      case OpKind::kProject:
        return CompileProject(q);
      case OpKind::kRename:
        return CompileRename(q);
      case OpKind::kProduct:
      case OpKind::kJoin:
        return CompileJoinTree(q, nullptr);
      case OpKind::kUnion:
        return CompileSetOp(q, PhysOp::kUnion, "union");
      case OpKind::kDifference:
        return CompileSetOp(q, PhysOp::kHashDiff, "difference");
      case OpKind::kIntersect:
        return CompileSetOp(q, PhysOp::kHashIntersect, "intersection");
      case OpKind::kDivision:
        return CompileDivision(q);
      case OpKind::kAntijoinUnify:
        return CompileSetOp(q, PhysOp::kUnifySemiJoin, "⋉⇑");
      case OpKind::kDom:
        return CompileDom(q);
      case OpKind::kSemijoin:
        return CompileSemiAnti(q, /*anti=*/false);
      case OpKind::kAntijoin:
        return CompileSemiAnti(q, /*anti=*/true);
      case OpKind::kIn:
      case OpKind::kNotIn:
        return CompileIn(q);
      case OpKind::kDistinct: {
        auto in = CompileNode(q->left);
        if (!in.ok()) return in;
        auto node = std::make_shared<PhysNode>();
        node->op = PhysOp::kDistinct;
        node->attrs = (*in)->attrs;
        node->left = *in;
        return PhysPtr(node);
      }
    }
    return Status::Internal("unknown operator");
  }

 private:
  bool set_semantics() const { return mode_ != EvalMode::kBagNaive; }

  /// Attaches `cond` to a node whose inputs are set and compiles its
  /// program (validating attribute references on the way).
  Status AttachCond(PhysNode* node, const CondPtr& cond) {
    node->cond = cond;
    return CompileNodeCond(node, ToCondMode(mode_));
  }

  StatusOr<PhysPtr> CompileScan(const AlgPtr& q) {
    if (!db_.Has(q->rel_name)) {
      return Status::NotFound("no relation named " + q->rel_name);
    }
    auto node = std::make_shared<PhysNode>();
    node->op = PhysOp::kScanView;
    node->rel_name = q->rel_name;
    node->attrs = db_.at(q->rel_name).attrs();
    return PhysPtr(node);
  }

  StatusOr<PhysPtr> CompileSelect(const AlgPtr& q) {
    // A selection over a product or join is a join (the predicate decides
    // which pairs survive) — fold it into the join machinery so the
    // conjunct-split / pushdown / OR-expansion passes see the condition.
    if (IsJoinTree(*q)) return CompileJoinTree(q, nullptr);
    auto in = CompileNode(q->left);
    if (!in.ok()) return in;
    auto node = std::make_shared<PhysNode>();
    node->op = PhysOp::kFilterSel;
    node->attrs = (*in)->attrs;
    node->left = *in;
    INCDB_RETURN_IF_ERROR(AttachCond(node.get(), q->cond));
    return PhysPtr(node);
  }

  StatusOr<PhysPtr> CompileProject(const AlgPtr& q) {
    // Projection fusion: π over a join-shaped child projects at emit time
    // instead of materialising the full-width pairs (π(σ(l × r)) is the
    // shape the desugared [NOT] IN / EXISTS and the Fig. 2 σ?-rules
    // produce).
    const Algebra* child = q->left.get();
    if (opts_.enable_projection_fusion && IsJoinTree(*child)) {
      return CompileJoinTree(q->left, &q->attrs);
    }
    // π(σ(x)) over a non-join child: one fused pass filters and projects
    // at emit time.
    if (opts_.enable_projection_fusion && child->kind == OpKind::kSelect) {
      auto in = CompileNode(child->left);
      if (!in.ok()) return in;
      auto node = std::make_shared<PhysNode>();
      node->op = PhysOp::kFusedProjectFilter;
      node->left = *in;
      INCDB_RETURN_IF_ERROR(AttachCond(node.get(), child->cond));
      INCDB_RETURN_IF_ERROR(
          ResolveProjection(q->attrs, (*in)->attrs, &node->proj_pos));
      node->attrs = q->attrs;
      return PhysPtr(node);
    }
    auto in = CompileNode(q->left);
    if (!in.ok()) return in;
    auto node = std::make_shared<PhysNode>();
    node->op = PhysOp::kProject;
    node->left = *in;
    INCDB_RETURN_IF_ERROR(
        ResolveProjection(q->attrs, (*in)->attrs, &node->proj_pos));
    node->attrs = q->attrs;
    return PhysPtr(node);
  }

  static Status ResolveProjection(const std::vector<std::string>& proj,
                                  const std::vector<std::string>& attrs,
                                  std::vector<size_t>* pos) {
    for (const std::string& a : proj) {
      size_t i = IndexOf(attrs, a);
      if (i == attrs.size()) {
        return Status::NotFound("projection attribute " + a + " not in input");
      }
      pos->push_back(i);
    }
    return Status::OK();
  }

  StatusOr<PhysPtr> CompileRename(const AlgPtr& q) {
    auto in = CompileNode(q->left);
    if (!in.ok()) return in;
    if (q->attrs.size() != (*in)->attrs.size()) {
      return Status::InvalidArgument("rename: arity mismatch");
    }
    auto node = std::make_shared<PhysNode>();
    node->op = PhysOp::kRename;
    node->attrs = q->attrs;
    node->left = *in;
    return PhysPtr(node);
  }

  /// Binary operators whose inputs must agree on arity.
  StatusOr<PhysPtr> CompileSetOp(const AlgPtr& q, PhysOp op, const char* name) {
    auto l = CompileNode(q->left);
    if (!l.ok()) return l;
    auto r = CompileNode(q->right);
    if (!r.ok()) return r;
    if ((*l)->attrs.size() != (*r)->attrs.size()) {
      return Status::InvalidArgument(std::string(name) + ": arity mismatch");
    }
    auto node = std::make_shared<PhysNode>();
    node->op = op;
    node->attrs = (*l)->attrs;
    node->left = *l;
    node->right = *r;
    return PhysPtr(node);
  }

  StatusOr<PhysPtr> CompileDivision(const AlgPtr& q) {
    if (mode_ == EvalMode::kSetSql) {
      return Status::Unsupported("division is not part of the SQL evaluator");
    }
    auto l = CompileNode(q->left);
    if (!l.ok()) return l;
    auto r = CompileNode(q->right);
    if (!r.ok()) return r;
    auto node = std::make_shared<PhysNode>();
    node->op = PhysOp::kDivision;
    node->left = *l;
    node->right = *r;
    // Align divisor attributes by name.
    const std::vector<std::string>& la = (*l)->attrs;
    const std::vector<std::string>& ra = (*r)->attrs;
    for (size_t i = 0; i < la.size(); ++i) {
      size_t j = IndexOf(ra, la[i]);
      if (j == ra.size()) {
        node->keep_pos.push_back(i);
        node->attrs.push_back(la[i]);
      } else {
        node->div_l.push_back(i);
        node->div_r.push_back(j);
      }
    }
    if (node->div_l.size() != ra.size()) {
      return Status::InvalidArgument(
          "division: divisor attributes must occur in the dividend");
    }
    if (node->attrs.empty()) {
      return Status::InvalidArgument(
          "division: dividend must have attributes beyond the divisor");
    }
    return PhysPtr(node);
  }

  StatusOr<PhysPtr> CompileDom(const AlgPtr& q) {
    auto node = std::make_shared<PhysNode>();
    node->op = PhysOp::kDom;
    node->attrs = q->attrs;
    node->dom_arity = q->dom_arity;
    node->dom_extra = q->dom_extra;
    return PhysPtr(node);
  }

  /// Joint schema of a join-like operator; errors on shared names.
  static StatusOr<std::vector<std::string>> JointAttrs(
      const PhysPtr& l, const PhysPtr& r, const char* op_name) {
    std::vector<std::string> attrs = l->attrs;
    for (const std::string& a : r->attrs) {
      if (IndexOf(l->attrs, a) != l->attrs.size()) {
        return Status::InvalidArgument(std::string(op_name) + ": attribute " +
                                       a + " appears on both sides (rename)");
      }
      attrs.push_back(a);
    }
    return attrs;
  }

  /// Splits `conj` into hash keys and a residual list. A key is a
  /// top-level equality l = r between the two sides, honouring `extract`
  /// (enable_hash_join), or with `maybe` the equality of a θ?-equality
  /// l = r ∨ null(l) ∨ null(r) (MaybeEquality).
  void SplitEquiConjuncts(const std::vector<CondPtr>& conj,
                          const std::vector<std::string>& lattrs,
                          const std::vector<std::string>& rattrs,
                          bool extract, bool maybe,
                          std::vector<size_t>* lkeys,
                          std::vector<size_t>* rkeys,
                          std::vector<CondPtr>* residual) {
    for (const CondPtr& c : conj) {
      const Condition* eq = maybe ? MaybeEquality(*c) : c.get();
      if (extract && eq != nullptr && eq->kind == CondKind::kEqAttrAttr) {
        size_t li = IndexOf(lattrs, eq->lhs);
        size_t ri = IndexOf(rattrs, eq->rhs);
        if (li == lattrs.size() || ri == rattrs.size()) {
          // Maybe the attributes are swapped.
          li = IndexOf(lattrs, eq->rhs);
          ri = IndexOf(rattrs, eq->lhs);
        }
        if (li != lattrs.size() && ri != rattrs.size()) {
          lkeys->push_back(li);
          rkeys->push_back(ri);
          continue;
        }
      }
      residual->push_back(c);
    }
  }

  /// Wraps `in` with a selection, pushing it below renames (σ(ρ(x)) =
  /// ρ(σ'(x)) with the condition's attribute names translated).
  StatusOr<PhysPtr> MakeFilter(const PhysPtr& in, const CondPtr& cond) {
    if (in->op == PhysOp::kRename) {
      std::map<std::string, std::string> to_old;
      for (size_t i = 0; i < in->attrs.size(); ++i) {
        to_old[in->attrs[i]] = in->left->attrs[i];
      }
      auto filtered = MakeFilter(in->left, RenameCondAttrs(cond, to_old));
      if (!filtered.ok()) return filtered;
      auto rename = std::make_shared<PhysNode>();
      rename->op = PhysOp::kRename;
      rename->attrs = in->attrs;
      rename->left = *filtered;
      return PhysPtr(rename);
    }
    auto node = std::make_shared<PhysNode>();
    node->op = PhysOp::kFilterSel;
    node->attrs = in->attrs;
    node->left = in;
    INCDB_RETURN_IF_ERROR(AttachCond(node.get(), cond));
    return PhysPtr(node);
  }

  /// Selection pushdown (enable_selection_pushdown): each conjunct of
  /// `*conj` that reads only the left input filters `*l` below the
  /// operator, and each one that reads only the right input filters `*r`;
  /// the rest stay in `*conj`. A null `l` keeps the left-only conjuncts.
  Status PushDown(std::vector<CondPtr>* conj, PhysPtr* l, PhysPtr* r) {
    if (!opts_.enable_selection_pushdown) return Status::OK();
    std::vector<CondPtr> lpush, rpush, keep;
    for (const CondPtr& c : *conj) {
      if (l != nullptr && CondWithin(c, (*l)->attrs)) {
        lpush.push_back(c);
      } else if (CondWithin(c, (*r)->attrs)) {
        rpush.push_back(c);
      } else {
        keep.push_back(c);
      }
    }
    if (!lpush.empty()) {
      auto fl = MakeFilter(*l, CAndAll(lpush));
      if (!fl.ok()) return fl.status();
      *l = *fl;
    }
    if (!rpush.empty()) {
      auto fr = MakeFilter(*r, CAndAll(rpush));
      if (!fr.ok()) return fr.status();
      *r = *fr;
    }
    *conj = std::move(keep);
    return Status::OK();
  }

  /// The union of two OR-expansion branches over the same schema.
  static PhysPtr UnionOf(PhysPtr a, PhysPtr b) {
    auto node = std::make_shared<PhysNode>();
    node->op = PhysOp::kUnion;
    node->attrs = a->attrs;
    node->left = std::move(a);
    node->right = std::move(b);
    return node;
  }

  /// True for the σ/×/⋈ trees that join two or more inputs: × and ⋈,
  /// and σ over one.
  static bool IsJoinTree(const Algebra& q) {
    return q.kind == OpKind::kProduct || q.kind == OpKind::kJoin ||
           (q.kind == OpKind::kSelect && IsJoinTree(*q.left));
  }

  /// The inputs of a maximal σ/×/⋈ tree, left to right (the FROM order),
  /// and the conjuncts of its ⋈ conditions and of the σ over its joins; a
  /// σ over a single input stays part of that input.
  static void FlattenJoinTree(const AlgPtr& q, std::vector<AlgPtr>* inputs,
                              std::vector<CondPtr>* conj) {
    if (!IsJoinTree(*q)) {
      inputs->push_back(q);
      return;
    }
    FlattenJoinTree(q->left, inputs, conj);
    if (q->kind != OpKind::kSelect) FlattenJoinTree(q->right, inputs, conj);
    if (q->cond) Conjuncts(q->cond, conj);
  }

  /// The first of `inputs` that a conjunct joins to `tree`: one that reads
  /// both and nothing else, so it can sit at the join that attaches the
  /// input. 0 when the join graph leaves them all disconnected.
  static size_t FirstConnected(const std::vector<CondPtr>& conj,
                               const std::vector<std::string>& tree,
                               const std::vector<PhysPtr>& inputs) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      const std::vector<std::string>& in = inputs[i]->attrs;
      std::vector<std::string> joint = tree;
      joint.insert(joint.end(), in.begin(), in.end());
      for (const CondPtr& c : conj) {
        if (CondWithin(c, joint) && !CondWithin(c, tree) &&
            !CondWithin(c, in)) {
          return i;
        }
      }
    }
    return 0;
  }

  /// A σ/×/⋈ tree, optionally projected at emit time, as a left-deep chain
  /// of BuildJoin steps that follows the join graph: it starts at the first
  /// input and attaches, each time, the first input (in FROM order) that a
  /// conjunct connects to the inputs joined so far — the first one left
  /// when none is connected — and each conjunct goes to the lowest join
  /// that covers its attributes, where BuildJoin's passes turn it into a
  /// hash key, a pushed-down filter or a residual. The order reads
  /// schemas only, so it is deterministic and plan-cache keys stay valid;
  /// reordering the inputs of a conjunction of σ over × is sound under
  /// sets, bags and SQL's 3VL alike. The top join's projection (the fused
  /// π, or else the FROM order's schema) restores the query's column
  /// order.
  StatusOr<PhysPtr> CompileJoinTree(const AlgPtr& q,
                                    const std::vector<std::string>* proj) {
    std::vector<AlgPtr> input_algs;
    std::vector<CondPtr> pending;
    FlattenJoinTree(q, &input_algs, &pending);
    std::vector<PhysPtr> inputs;
    std::vector<std::string> from_attrs;
    for (const AlgPtr& a : input_algs) {
      auto in = CompileNode(a);
      if (!in.ok()) return in;
      from_attrs.insert(from_attrs.end(), (*in)->attrs.begin(),
                        (*in)->attrs.end());
      inputs.push_back(*std::move(in));
    }
    PhysPtr tree = inputs.front();
    inputs.erase(inputs.begin());
    while (!inputs.empty()) {
      const size_t pick = FirstConnected(pending, tree->attrs, inputs);
      PhysPtr in = std::move(inputs[pick]);
      inputs.erase(inputs.begin() + static_cast<std::ptrdiff_t>(pick));
      std::vector<std::string> joint = tree->attrs;
      joint.insert(joint.end(), in->attrs.begin(), in->attrs.end());
      std::vector<CondPtr> here, rest;
      for (CondPtr& c : pending) {
        const bool place = inputs.empty() || CondWithin(c, joint);
        (place ? here : rest).push_back(std::move(c));
      }
      pending = std::move(rest);
      const std::vector<std::string>* out = nullptr;
      if (inputs.empty()) {
        out = proj;
        if (out == nullptr && joint != from_attrs) out = &from_attrs;
      }
      auto joined = BuildJoin(tree, in, CAndAll(here), out);
      if (!joined.ok()) return joined;
      tree = *std::move(joined);
    }
    return tree;
  }

  /// σ_cond(l × r), optionally projected at emit time — the join rewrite
  /// pipeline: selection pushdown, conjunct split into hash keys,
  /// OR-expansion. Also the re-entry point for OR-expansion branches,
  /// which share the already-compiled inputs (the plan becomes a DAG).
  StatusOr<PhysPtr> BuildJoin(PhysPtr l, PhysPtr r, const CondPtr& cond,
                              const std::vector<std::string>* proj) {
    auto joint = JointAttrs(l, r, "product");
    if (!joint.ok()) return joint.status();

    std::vector<CondPtr> conj;
    Conjuncts(cond, &conj);
    INCDB_RETURN_IF_ERROR(PushDown(&conj, &l, &r));

    // Conjunct split: hashable equi-conjuncts vs residual.
    std::vector<size_t> lkeys, rkeys;
    std::vector<CondPtr> residual;
    SplitEquiConjuncts(conj, l->attrs, r->attrs, opts_.enable_hash_join,
                       /*maybe=*/false, &lkeys, &rkeys, &residual);

    // OR-expansion: a disjunctive join condition with no hashable
    // top-level equality (the shape the Fig. 2(b) σ?-rule produces:
    // a = b ∨ null(a) ∨ null(b)) would force a full nested loop. Under
    // set semantics σ_{θ1∨θ2}(l×r) = σ_{θ1}(l×r) ∪ σ_{θ2}(l×r), and each
    // disjunct is re-optimised with its own fast path. (Not valid under
    // bags — rows satisfying both disjuncts would double-count.)
    if (opts_.enable_or_expansion && lkeys.empty() &&
        residual.size() == 1 && residual[0]->kind == CondKind::kOr &&
        set_semantics()) {
      auto a = BuildJoin(l, r, residual[0]->left, proj);
      if (!a.ok()) return a;
      auto b = BuildJoin(l, r, residual[0]->right, proj);
      if (!b.ok()) return b;
      return UnionOf(*a, *b);
    }

    auto node = std::make_shared<PhysNode>();
    node->op = lkeys.empty() ? PhysOp::kNLJoin : PhysOp::kHashJoin;
    node->left = l;
    node->right = r;
    node->left_arity = l->attrs.size();
    node->lkeys = std::move(lkeys);
    node->rkeys = std::move(rkeys);
    INCDB_RETURN_IF_ERROR(AttachCond(node.get(), CAndAll(residual)));
    if (proj != nullptr) {
      node->fused_proj = true;
      node->proj_left_only = true;
      node->proj_right_only = true;
      for (const std::string& a : *proj) {
        size_t i = IndexOf(*joint, a);
        if (i == joint->size()) {
          return Status::NotFound("projection attribute " + a +
                                  " not in join output");
        }
        node->proj_pos.push_back(i);
        if (i < node->left_arity) {
          node->proj_right_only = false;
        } else {
          node->proj_left_only = false;
        }
      }
      node->attrs = *proj;
    } else {
      node->attrs = std::move(*joint);
    }
    return PhysPtr(node);
  }

  StatusOr<PhysPtr> CompileSemiAnti(const AlgPtr& q, bool anti) {
    auto l = CompileNode(q->left);
    if (!l.ok()) return l;
    auto r = CompileNode(q->right);
    if (!r.ok()) return r;
    return BuildSemiAnti(*l, *r, q->cond, anti);
  }

  /// x̄ [NOT] IN (Q2 WHERE θ): the ⋉ (▷) on InSemijoinCond's condition.
  StatusOr<PhysPtr> CompileIn(const AlgPtr& q) {
    auto l = CompileNode(q->left);
    if (!l.ok()) return l;
    auto r = CompileNode(q->right);
    if (!r.ok()) return r;
    auto cond = InSemijoinCond(q, mode_ == EvalMode::kSetSql);
    if (!cond.ok()) return cond.status();
    for (size_t i = 0; i < q->attrs.size(); ++i) {
      if (IndexOf((*l)->attrs, q->attrs[i]) == (*l)->attrs.size() ||
          IndexOf((*r)->attrs, q->attrs2[i]) == (*r)->attrs.size()) {
        return Status::NotFound("IN: compare columns " + q->attrs[i] + ", " +
                                q->attrs2[i] + " are not on their sides");
      }
    }
    return BuildSemiAnti(*l, *r, *cond, q->kind == OpKind::kNotIn);
  }

  /// l ⋉cond r, or l ▷cond r with `anti`: an EXISTS probe per left row.
  StatusOr<PhysPtr> BuildSemiAnti(const PhysPtr& l, PhysPtr r,
                                  const CondPtr& cond, bool anti) {
    INCDB_RETURN_IF_ERROR(JointAttrs(l, r, "semijoin").status());
    // The probe only asks whether some right row passes the conjuncts, so
    // the right-only ones filter the right input. The left-only ones stay:
    // an antijoin keeps the left rows that fail them.
    std::vector<CondPtr> conj;
    Conjuncts(cond, &conj);
    INCDB_RETURN_IF_ERROR(PushDown(&conj, nullptr, &r));
    // The probe reads only the columns the conditions name, and no right
    // multiplicity reaches the output: a π or δ over the right input
    // changes no answer, under sets, bags and SQL alike. Reading past them
    // lets a right input that is a (renamed) scan be probed in place,
    // through its relation state's memoised index, unless that would
    // expose a name the left side also has. A π∘σ stays: it keeps far
    // fewer rows than its σ alone would materialise.
    while ((r->op == PhysOp::kProject || r->op == PhysOp::kDistinct) &&
           JointAttrs(l, r->left, "semijoin").ok()) {
      r = r->left;
    }
    // Split into equi-conjuncts usable for hashing and a residual
    // predicate (always extracted: the EXISTS probe needs only *any*
    // match, so hashing never loses multiplicities).
    std::vector<size_t> lkeys, rkeys;
    std::vector<CondPtr> residual;
    SplitEquiConjuncts(conj, l->attrs, r->attrs, /*extract=*/true,
                       /*maybe=*/false, &lkeys, &rkeys, &residual);
    // Without an equality key, the θ?-equalities of the Fig. 2(b) rules and
    // of SQL's NOT IN are null-aware keys: a key column matches when equal
    // or null on either side, which is when a = b ∨ null(a) ∨ null(b) is t
    // under every mode.
    bool null_aware = false;
    if (lkeys.empty()) {
      conj = std::move(residual);
      residual.clear();
      SplitEquiConjuncts(conj, l->attrs, r->attrs, /*extract=*/true,
                         /*maybe=*/true, &lkeys, &rkeys, &residual);
      null_aware = !lkeys.empty();
    }

    auto node = std::make_shared<PhysNode>();
    node->op = PhysOp::kHashSemi;
    node->anti = anti;
    node->null_aware = null_aware;
    node->attrs = l->attrs;
    node->left = l;
    node->right = r;
    node->left_arity = l->attrs.size();
    node->lkeys = std::move(lkeys);
    node->rkeys = std::move(rkeys);
    node->trivial_residual = residual.empty();
    CondPtr res = CAndAll(residual);
    node->residual_left_only =
        !node->trivial_residual && CondWithin(res, l->attrs);
    INCDB_RETURN_IF_ERROR(AttachCond(node.get(), res));
    return PhysPtr(node);
  }

  EvalMode mode_;
  EvalOptions opts_;
  const Database& db_;
};

void CountEdges(const PhysPtr& n,
                std::unordered_map<const PhysNode*, uint32_t>* refcount) {
  uint32_t& c = (*refcount)[n.get()];
  if (++c > 1) return;  // children already counted on the first visit
  if (n->left) CountEdges(n->left, refcount);
  if (n->right) CountEdges(n->right, refcount);
}

}  // namespace

bool OpIsMaintainable(PhysOp op) {
  switch (op) {
    case PhysOp::kScanView:
    case PhysOp::kFilterSel:
    case PhysOp::kFusedProjectFilter:
    case PhysOp::kProject:
    case PhysOp::kRename:
    case PhysOp::kUnion:
    case PhysOp::kHashJoin:
    case PhysOp::kNLJoin:
      return true;
    default:
      return false;
  }
}

namespace {

/// Fills Plan::scanned_rels (sorted, deduplicated), Plan::uses_dom and
/// Plan::maintainable — the data-dependency footprint the result cache
/// keys on, plus the delta-maintenance classification.
void CollectDataDeps(const PhysPtr& n, std::set<std::string>* names,
                     bool* uses_dom, bool* maintainable) {
  if (n->op == PhysOp::kScanView) names->insert(n->rel_name);
  if (n->op == PhysOp::kDom) *uses_dom = true;
  if (!OpIsMaintainable(n->op)) *maintainable = false;
  if (n->left) CollectDataDeps(n->left, names, uses_dom, maintainable);
  if (n->right) CollectDataDeps(n->right, names, uses_dom, maintainable);
}

void RenderNode(const PhysPtr& n, size_t depth, std::string* out) {
  out->append(2 * depth, ' ');
  out->append(ToString(n->op));
  if (n->op == PhysOp::kScanView) {
    *out += "(" + n->rel_name + ")";
  }
  if (n->null_aware) *out += "(null-aware)";
  if (n->cond && n->cond->kind != CondKind::kTrue) {
    *out += "[" + n->cond->ToString() + "]";
  }
  if (n->fused_proj || n->op == PhysOp::kProject ||
      n->op == PhysOp::kFusedProjectFilter) {
    *out += " π{";
    for (size_t i = 0; i < n->attrs.size(); ++i) {
      if (i) *out += ",";
      *out += n->attrs[i];
    }
    *out += "}";
  }
  *out += "\n";
  if (n->left) RenderNode(n->left, depth + 1, out);
  if (n->right) RenderNode(n->right, depth + 1, out);
}

}  // namespace

size_t ResolveNumThreads(size_t requested) {
  if (requested == 0) {
    size_t hw = std::thread::hardware_concurrency();
    requested = hw > 0 ? hw : 1;
  }
  return std::min(requested, kMaxEvalThreads);
}

StatusOr<PlanPtr> Compile(const AlgPtr& q, EvalMode mode,
                          const EvalOptions& opts, const Database& db) {
  if (opts.batch_size == 0) {
    return Status::InvalidArgument(
        "EvalOptions::batch_size must be at least 1 (it is the row window "
        "every operator sweeps by)");
  }
  Compiler compiler(mode, opts, db);
  auto root = compiler.CompileNode(q);
  if (!root.ok()) return root.status();
  auto plan = std::make_shared<Plan>();
  plan->root = *root;
  plan->mode = mode;
  plan->opts = opts;
  plan->opts.num_threads = ResolveNumThreads(opts.num_threads);
  plan->param_count = ParamCount(q);
  CountEdges(plan->root, &plan->refcount);
  std::set<std::string> names;
  plan->maintainable = true;
  CollectDataDeps(plan->root, &names, &plan->uses_dom, &plan->maintainable);
  plan->scanned_rels.assign(names.begin(), names.end());
  INCDB_RETURN_IF_ERROR(internal::MaybeVerifyPlan(*plan, &db));
  return PlanPtr(plan);
}

namespace {

/// Clone-on-write parameter substitution over the operator DAG. Shared
/// nodes (OR-expansion branches) are bound once and reused, preserving the
/// DAG shape so the executor's memoisation keeps working.
class PlanBinder {
 public:
  PlanBinder(const std::vector<Value>& params, CondMode mode)
      : params_(params), mode_(mode) {}

  StatusOr<PhysPtr> Bind(const PhysPtr& n) {
    auto it = done_.find(n.get());
    if (it != done_.end()) return it->second;

    PhysPtr left = n->left, right = n->right;
    if (n->left) {
      auto l = Bind(n->left);
      if (!l.ok()) return l;
      left = *l;
    }
    if (n->right) {
      auto r = Bind(n->right);
      if (!r.ok()) return r;
      right = *r;
    }
    const bool cond_param = n->cond && CondHasParam(n->cond);
    bool dom_param = false;
    for (const Value& v : n->dom_extra) dom_param |= v.is_param();

    if (!cond_param && !dom_param && left == n->left && right == n->right) {
      done_.emplace(n.get(), n);  // parameter-free subtree: share
      return n;
    }
    auto copy = std::make_shared<PhysNode>(*n);
    copy->left = std::move(left);
    copy->right = std::move(right);
    if (cond_param) {
      auto cond = BindCondParams(n->cond, params_);
      if (!cond.ok()) return cond.status();
      copy->cond = *cond;
      INCDB_RETURN_IF_ERROR(CompileNodeCond(copy.get(), mode_));
    }
    if (dom_param) {
      for (Value& v : copy->dom_extra) {
        auto bound = ResolveParamBinding(v, params_);
        if (!bound.ok()) return bound.status();
        v = *bound;
      }
    }
    PhysPtr out = copy;
    done_.emplace(n.get(), out);
    return out;
  }

 private:
  const std::vector<Value>& params_;
  CondMode mode_;
  std::unordered_map<const PhysNode*, PhysPtr> done_;
};

}  // namespace

StatusOr<PlanPtr> BindPlanParams(const PlanPtr& plan,
                                 const std::vector<Value>& params) {
  if (!plan || !plan->root) {
    return Status::InvalidArgument("BindPlanParams: empty plan");
  }
  if (plan->param_count == 0) return plan;
  if (params.size() < plan->param_count) {
    return Status::InvalidArgument(
        "plan expects " + std::to_string(plan->param_count) +
        " parameter binding(s), got " + std::to_string(params.size()));
  }
  for (size_t i = 0; i < params.size(); ++i) {
    if (!params[i].is_const()) {
      return Status::InvalidArgument(
          "parameter ?" + std::to_string(i) +
          " must be bound to a constant, got " + params[i].ToString());
    }
  }
  PlanBinder binder(params, ToCondMode(plan->mode));
  auto root = binder.Bind(plan->root);
  if (!root.ok()) return root.status();
  auto bound = std::make_shared<Plan>();
  bound->root = *root;
  bound->mode = plan->mode;
  bound->opts = plan->opts;
  bound->param_count = 0;
  bound->scanned_rels = plan->scanned_rels;
  bound->uses_dom = plan->uses_dom;
  bound->maintainable = plan->maintainable;
  CountEdges(bound->root, &bound->refcount);
  INCDB_RETURN_IF_ERROR(internal::MaybeVerifyPlan(*bound));
  return PlanPtr(bound);
}

size_t CountOps(const Plan& plan, PhysOp op) {
  size_t count = 0;
  std::unordered_set<const PhysNode*> seen;
  std::vector<const PhysNode*> stack = {plan.root.get()};
  while (!stack.empty()) {
    const PhysNode* n = stack.back();
    stack.pop_back();
    if (!seen.insert(n).second) continue;
    if (n->op == op) ++count;
    if (n->left) stack.push_back(n->left.get());
    if (n->right) stack.push_back(n->right.get());
  }
  return count;
}

std::string PlanToString(const Plan& plan) {
  std::string out;
  RenderNode(plan.root, 0, &out);
  return out;
}

}  // namespace incdb
