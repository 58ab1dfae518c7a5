#include "eval/verify.h"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "eval/batch.h"

namespace incdb {

namespace {

/// One verification walk over a plan. Collects nothing; fails fast with a
/// kInternal status naming the offending node by its root path.
class PlanVerifier {
 public:
  PlanVerifier(const Plan& plan, const Database* catalog)
      : plan_(plan), catalog_(catalog) {}

  Status Run() {
    if (!plan_.root) return Fail("", "plan has no root node");
    // Acyclicity first: every later traversal assumes a DAG and would
    // otherwise loop forever on a corrupted share.
    INCDB_RETURN_IF_ERROR(CheckAcyclic(plan_.root, ""));
    INCDB_RETURN_IF_ERROR(CheckNodes(plan_.root, ""));
    INCDB_RETURN_IF_ERROR(CheckRefcounts());
    INCDB_RETURN_IF_ERROR(CheckPlanSummary());
    return Status::OK();
  }

 private:
  static std::string PathName(const std::string& path) {
    return path.empty() ? "root" : "root" + path;
  }

  Status Fail(const std::string& path, const std::string& msg) const {
    return Status::Internal("plan verifier: " + PathName(path) + ": " + msg);
  }

  Status FailNode(const PhysNode& n, const std::string& path,
                  const std::string& msg) const {
    return Status::Internal("plan verifier: " + PathName(path) + " (" +
                            ToString(n.op) + "): " + msg);
  }

  /// DFS three-colouring; a grey-node revisit is a cycle through `path`.
  Status CheckAcyclic(const PhysPtr& n, const std::string& path) {
    if (!n) return Fail(path, "null child pointer");
    const PhysNode* p = n.get();
    auto it = colour_.find(p);
    if (it != colour_.end()) {
      if (it->second == kGrey) {
        return FailNode(*n, path, "cycle in the operator graph");
      }
      return Status::OK();  // black: shared subtree, already validated
    }
    colour_[p] = kGrey;
    if (n->left) INCDB_RETURN_IF_ERROR(CheckAcyclic(n->left, path + ".left"));
    if (n->right) {
      INCDB_RETURN_IF_ERROR(CheckAcyclic(n->right, path + ".right"));
    }
    colour_[p] = kBlack;
    return Status::OK();
  }

  /// Per-node structural checks; shared subtrees are validated once (their
  /// invariants do not depend on the parent).
  Status CheckNodes(const PhysPtr& n, const std::string& path) {
    if (!checked_.insert(n.get()).second) return Status::OK();
    if (n->left) INCDB_RETURN_IF_ERROR(CheckNodes(n->left, path + ".left"));
    if (n->right) INCDB_RETURN_IF_ERROR(CheckNodes(n->right, path + ".right"));
    return CheckNode(*n, path);
  }

  Status CheckNode(const PhysNode& n, const std::string& path) {
    INCDB_RETURN_IF_ERROR(CheckShape(n, path));
    switch (n.op) {
      case PhysOp::kScanView:
        return CheckScan(n, path);
      case PhysOp::kFilterSel:
        INCDB_RETURN_IF_ERROR(
            CheckSchemaEquals(n, path, n.left->attrs, "input"));
        return CheckCond(n, path, n.left->attrs);
      case PhysOp::kFusedProjectFilter:
        INCDB_RETURN_IF_ERROR(
            CheckProjection(n, path, n.proj_pos, n.left->attrs));
        return CheckCond(n, path, n.left->attrs);
      case PhysOp::kProject:
        INCDB_RETURN_IF_ERROR(CheckNoCond(n, path));
        return CheckProjection(n, path, n.proj_pos, n.left->attrs);
      case PhysOp::kRename:
        INCDB_RETURN_IF_ERROR(CheckNoCond(n, path));
        if (n.attrs.size() != n.left->attrs.size()) {
          return FailNode(n, path,
                          "rename arity " + std::to_string(n.attrs.size()) +
                              " != input arity " +
                              std::to_string(n.left->attrs.size()));
        }
        return Status::OK();
      case PhysOp::kHashJoin:
      case PhysOp::kNLJoin:
        return CheckJoin(n, path);
      case PhysOp::kUnion:
      case PhysOp::kHashDiff:
      case PhysOp::kHashIntersect:
      case PhysOp::kUnifySemiJoin:
        INCDB_RETURN_IF_ERROR(CheckNoCond(n, path));
        if (n.left->attrs.size() != n.right->attrs.size()) {
          return FailNode(
              n, path,
              "input arities disagree: " + std::to_string(n.left->attrs.size()) +
                  " vs " + std::to_string(n.right->attrs.size()));
        }
        return CheckSchemaEquals(n, path, n.left->attrs, "left input");
      case PhysOp::kDivision:
        return CheckDivision(n, path);
      case PhysOp::kHashSemi:
        return CheckSemi(n, path);
      case PhysOp::kDom:
        return CheckDom(n, path);
      case PhysOp::kDistinct:
        INCDB_RETURN_IF_ERROR(CheckNoCond(n, path));
        return CheckSchemaEquals(n, path, n.left->attrs, "input");
    }
    return FailNode(n, path, "unknown operator kind");
  }

  /// Leaf / unary / binary child shape per operator.
  Status CheckShape(const PhysNode& n, const std::string& path) const {
    bool want_left = true, want_right = true;
    switch (n.op) {
      case PhysOp::kScanView:
      case PhysOp::kDom:
        want_left = want_right = false;
        break;
      case PhysOp::kFilterSel:
      case PhysOp::kFusedProjectFilter:
      case PhysOp::kProject:
      case PhysOp::kRename:
      case PhysOp::kDistinct:
        want_right = false;
        break;
      default:
        break;
    }
    if (want_left != (n.left != nullptr)) {
      return FailNode(n, path, want_left ? "missing left input"
                                         : "unexpected left input");
    }
    if (want_right != (n.right != nullptr)) {
      return FailNode(n, path, want_right ? "missing right input"
                                          : "unexpected right input");
    }
    return Status::OK();
  }

  Status CheckSchemaEquals(const PhysNode& n, const std::string& path,
                           const std::vector<std::string>& expect,
                           const char* what) const {
    if (n.attrs != expect) {
      return FailNode(n, path, std::string("output schema differs from the ") +
                                   what + " schema");
    }
    return Status::OK();
  }

  Status CheckScan(const PhysNode& n, const std::string& path) const {
    if (n.rel_name.empty()) return FailNode(n, path, "empty relation name");
    if (catalog_ != nullptr) {
      const Relation* rel = catalog_->Find(n.rel_name);
      if (rel == nullptr) {
        return FailNode(n, path,
                        "relation " + n.rel_name + " not in the catalog");
      }
      if (rel->attrs() != n.attrs) {
        return FailNode(n, path, "recorded schema of " + n.rel_name +
                                     " differs from the catalog schema");
      }
    }
    return Status::OK();
  }

  /// proj_pos maps every output position to an in-bounds input position
  /// carrying the same attribute name.
  Status CheckProjection(const PhysNode& n, const std::string& path,
                         const std::vector<size_t>& pos,
                         const std::vector<std::string>& input) const {
    if (pos.size() != n.attrs.size()) {
      return FailNode(n, path,
                      "projection maps " + std::to_string(pos.size()) +
                          " position(s) but the output schema has " +
                          std::to_string(n.attrs.size()));
    }
    for (size_t i = 0; i < pos.size(); ++i) {
      if (pos[i] >= input.size()) {
        return FailNode(n, path,
                        "projection position " + std::to_string(pos[i]) +
                            " out of range (input arity " +
                            std::to_string(input.size()) + ")");
      }
      if (n.attrs[i] != input[pos[i]]) {
        return FailNode(n, path, "projected attribute " + n.attrs[i] +
                                     " names input position " +
                                     std::to_string(pos[i]) + " which is " +
                                     input[pos[i]]);
      }
    }
    return Status::OK();
  }

  /// The left·right schema a join or ⋉/▷ reads, once left_arity matches
  /// its left input and no attribute appears on both sides.
  StatusOr<std::vector<std::string>> JointInput(const PhysNode& n,
                                                const std::string& path) const {
    const std::vector<std::string>& la = n.left->attrs;
    if (n.left_arity != la.size()) {
      return FailNode(n, path,
                      "left_arity " + std::to_string(n.left_arity) +
                          " != left input arity " + std::to_string(la.size()));
    }
    std::vector<std::string> joint = la;
    for (const std::string& a : n.right->attrs) {
      if (IndexOf(la, a) != la.size()) {
        return FailNode(n, path, "attribute " + a + " appears on both sides");
      }
      joint.push_back(a);
    }
    return joint;
  }

  Status CheckJoin(const PhysNode& n, const std::string& path) const {
    const std::vector<std::string>& la = n.left->attrs;
    const std::vector<std::string>& ra = n.right->attrs;
    auto joint = JointInput(n, path);
    if (!joint.ok()) return joint.status();
    if (n.op == PhysOp::kHashJoin) {
      if (n.lkeys.empty()) {
        return FailNode(n, path, "hash join without key columns");
      }
      INCDB_RETURN_IF_ERROR(CheckKeys(n, path, la.size(), ra.size()));
    } else {
      if (!n.lkeys.empty() || !n.rkeys.empty()) {
        return FailNode(n, path, "nested-loop join carries hash keys");
      }
    }
    if (n.fused_proj) {
      INCDB_RETURN_IF_ERROR(CheckProjection(n, path, n.proj_pos, *joint));
      bool left_only = true, right_only = true;
      for (size_t p : n.proj_pos) {
        (p < n.left_arity ? right_only : left_only) = false;
      }
      if (n.proj_left_only != left_only || n.proj_right_only != right_only) {
        return FailNode(n, path,
                        "proj_left_only/proj_right_only flags disagree with "
                        "the projected positions");
      }
    } else {
      if (!n.proj_pos.empty()) {
        return FailNode(n, path, "proj_pos set without fused_proj");
      }
      INCDB_RETURN_IF_ERROR(CheckSchemaEquals(n, path, *joint, "joint input"));
    }
    return CheckCond(n, path, *joint);
  }

  Status CheckKeys(const PhysNode& n, const std::string& path, size_t larity,
                   size_t rarity) const {
    if (n.lkeys.size() != n.rkeys.size()) {
      return FailNode(n, path,
                      "key column counts disagree: " +
                          std::to_string(n.lkeys.size()) + " left vs " +
                          std::to_string(n.rkeys.size()) + " right");
    }
    for (size_t k : n.lkeys) {
      if (k >= larity) {
        return FailNode(n, path, "left key position " + std::to_string(k) +
                                     " out of range (arity " +
                                     std::to_string(larity) + ")");
      }
    }
    for (size_t k : n.rkeys) {
      if (k >= rarity) {
        return FailNode(n, path, "right key position " + std::to_string(k) +
                                     " out of range (arity " +
                                     std::to_string(rarity) + ")");
      }
    }
    return Status::OK();
  }

  Status CheckSemi(const PhysNode& n, const std::string& path) const {
    INCDB_RETURN_IF_ERROR(CheckSchemaEquals(n, path, n.left->attrs, "left"));
    auto joint = JointInput(n, path);
    if (!joint.ok()) return joint.status();
    INCDB_RETURN_IF_ERROR(
        CheckKeys(n, path, n.left->attrs.size(), n.right->attrs.size()));
    if (n.null_aware && n.lkeys.empty()) {
      return FailNode(n, path, "null-aware semijoin without key columns");
    }
    if (!n.cond) return FailNode(n, path, "semijoin without residual condition");
    if (n.trivial_residual != (n.cond->kind == CondKind::kTrue)) {
      return FailNode(n, path,
                      "trivial_residual flag disagrees with the condition");
    }
    bool left_only = !n.trivial_residual;
    for (const std::string& a : CondAttrs(n.cond)) {
      left_only &= IndexOf(n.left->attrs, a) != n.left->attrs.size();
    }
    if (n.residual_left_only != left_only) {
      return FailNode(n, path,
                      "residual_left_only flag disagrees with the condition");
    }
    return CheckCond(n, path, *joint);
  }

  Status CheckDivision(const PhysNode& n, const std::string& path) const {
    INCDB_RETURN_IF_ERROR(CheckNoCond(n, path));
    const std::vector<std::string>& la = n.left->attrs;
    const std::vector<std::string>& ra = n.right->attrs;
    if (n.div_l.size() != n.div_r.size() || n.div_l.size() != ra.size()) {
      return FailNode(n, path,
                      "division alignment does not cover the divisor");
    }
    for (size_t i = 0; i < n.div_l.size(); ++i) {
      if (n.div_l[i] >= la.size() || n.div_r[i] >= ra.size()) {
        return FailNode(n, path, "division alignment position out of range");
      }
      if (la[n.div_l[i]] != ra[n.div_r[i]]) {
        return FailNode(n, path, "division aligns differently named columns");
      }
    }
    if (n.attrs.empty()) {
      return FailNode(n, path, "division output schema is empty");
    }
    return CheckProjection(n, path, n.keep_pos, la);
  }

  Status CheckDom(const PhysNode& n, const std::string& path) const {
    INCDB_RETURN_IF_ERROR(CheckNoCond(n, path));
    if (n.attrs.size() != n.dom_arity) {
      return FailNode(n, path,
                      "Dom arity " + std::to_string(n.dom_arity) +
                          " != output schema arity " +
                          std::to_string(n.attrs.size()));
    }
    for (const Value& v : n.dom_extra) {
      if (v.is_param() && v.param_index() >= plan_.param_count) {
        return FailNode(n, path,
                        "Dom extra references parameter ?" +
                            std::to_string(v.param_index()) +
                            " beyond param_count " +
                            std::to_string(plan_.param_count));
      }
    }
    return Status::OK();
  }

  /// Operators that never carry a selection condition must not have one.
  Status CheckNoCond(const PhysNode& n, const std::string& path) const {
    if (n.cond && n.cond->kind != CondKind::kTrue) {
      return FailNode(n, path, "operator carries an unexpected condition");
    }
    return Status::OK();
  }

  /// Condition-bearing operators: attribute resolution against the input
  /// schema, parameter coverage, the node's program, and — once the
  /// condition is bound — a well-formed program.
  Status CheckCond(const PhysNode& n, const std::string& path,
                   const std::vector<std::string>& input) const {
    if (!n.cond) return FailNode(n, path, "missing condition");
    if (!n.prog) return FailNode(n, path, "missing predicate program");
    for (const std::string& a : CondAttrs(n.cond)) {
      if (IndexOf(input, a) == input.size()) {
        return FailNode(n, path, "condition references attribute " + a +
                                     " outside the input schema");
      }
    }
    if (CondParamCount(n.cond) > plan_.param_count) {
      return FailNode(n, path,
                      "condition needs " +
                          std::to_string(CondParamCount(n.cond)) +
                          " parameter(s) but param_count is " +
                          std::to_string(plan_.param_count));
    }
    if (!CondHasParam(n.cond)) {
      Status prog = n.prog->Validate(input.size());
      if (!prog.ok()) {
        return FailNode(n, path,
                        "malformed predicate program: " + prog.message());
      }
    }
    return Status::OK();
  }

  /// Recomputes parent-edge counts and compares with Plan::refcount — the
  /// executor memoises exactly the nodes recorded as shared there.
  Status CheckRefcounts() {
    std::unordered_map<const PhysNode*, uint32_t> counts;
    CountParentEdges(plan_.root, &counts);
    if (counts.size() != plan_.refcount.size()) {
      return Fail("", "refcount map covers " +
                          std::to_string(plan_.refcount.size()) +
                          " node(s), the DAG has " +
                          std::to_string(counts.size()));
    }
    for (const auto& [node, c] : counts) {
      auto it = plan_.refcount.find(node);
      if (it == plan_.refcount.end() || it->second != c) {
        return Status::Internal(
            "plan verifier: node (" + std::string(ToString(node->op)) +
            ") has " + std::to_string(c) + " parent edge(s), refcount records " +
            std::to_string(it == plan_.refcount.end() ? 0 : it->second));
      }
    }
    return Status::OK();
  }

  static void CountParentEdges(
      const PhysPtr& n, std::unordered_map<const PhysNode*, uint32_t>* counts) {
    uint32_t& c = (*counts)[n.get()];
    if (++c > 1) return;
    if (n->left) CountParentEdges(n->left, counts);
    if (n->right) CountParentEdges(n->right, counts);
  }

  /// Plan-level summary fields recomputed from the DAG.
  Status CheckPlanSummary() {
    std::set<std::string> scans;
    bool uses_dom = false;
    bool ops_maintainable = true;
    size_t params_needed = 0;
    for (const PhysNode* n : checked_) {
      if (n->op == PhysOp::kScanView) scans.insert(n->rel_name);
      if (n->op == PhysOp::kDom) uses_dom = true;
      if (!OpIsMaintainable(n->op)) ops_maintainable = false;
      if (n->cond) params_needed = std::max(params_needed,
                                            CondParamCount(n->cond));
      for (const Value& v : n->dom_extra) {
        if (v.is_param()) {
          params_needed =
              std::max(params_needed, size_t{v.param_index()} + 1);
        }
      }
    }
    std::vector<std::string> expect(scans.begin(), scans.end());
    if (plan_.scanned_rels != expect) {
      return Fail("", "scanned_rels does not match the plan's scan leaves");
    }
    if (plan_.uses_dom != uses_dom) {
      return Fail("", plan_.uses_dom
                          ? "uses_dom set but the plan has no Dom operator"
                          : "plan has a Dom operator but uses_dom is unset");
    }
    if (plan_.maintainable != ops_maintainable) {
      return Fail("", plan_.maintainable
                          ? "maintainable set but the plan contains "
                            "unsupported operators"
                          : "maintainable unset though every operator is in "
                            "the delta-propagation subset");
    }
    if (params_needed > plan_.param_count) {
      return Fail("", "param_count " + std::to_string(plan_.param_count) +
                          " does not cover parameter slots used (" +
                          std::to_string(params_needed) + ")");
    }
    if (plan_.opts.num_threads == 0 ||
        plan_.opts.num_threads > kMaxEvalThreads) {
      return Fail("", "EvalOptions::num_threads was not resolved at compile "
                      "time (got " +
                          std::to_string(plan_.opts.num_threads) + ")");
    }
    if (plan_.opts.batch_size == 0) {
      return Fail("", "EvalOptions::batch_size 0 would stall every window "
                      "sweep");
    }
    return Status::OK();
  }

  enum Colour : uint8_t { kGrey, kBlack };

  const Plan& plan_;
  const Database* catalog_;
  std::unordered_map<const PhysNode*, Colour> colour_;
  std::set<const PhysNode*> checked_;
};

}  // namespace

Status VerifyPlan(const Plan& plan, const Database* catalog) {
  return PlanVerifier(plan, catalog).Run();
}

Status VerifyPlan(const PlanPtr& plan, const Database* catalog) {
  if (!plan) return Status::Internal("plan verifier: null plan");
  return VerifyPlan(*plan, catalog);
}

bool PlanVerificationEnabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("INCDB_VERIFY_PLANS");
    return env == nullptr || std::string(env) != "0";
  }();
  return enabled;
}

}  // namespace incdb
