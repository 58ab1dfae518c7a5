#include "eval/batch.h"

#include <algorithm>
#include <functional>

namespace incdb {

namespace {

// The branchless connective loops below rely on the numeric encoding of
// Kleene's truth order f < u < t (∧ = min, ∨ = max, ¬ = 2 − x; see
// logic/kleene.cpp).
static_assert(static_cast<uint8_t>(TV3::kF) == 0 &&
                  static_cast<uint8_t>(TV3::kU) == 1 &&
                  static_cast<uint8_t>(TV3::kT) == 2,
              "batch connectives assume the f < u < t encoding");

constexpr uint8_t kT8 = static_cast<uint8_t>(TV3::kT);
constexpr uint8_t kF8 = static_cast<uint8_t>(TV3::kF);

inline uint8_t ToU8(TV3 v) { return static_cast<uint8_t>(v); }

}  // namespace

StatusOr<BatchPredicate> BatchPredicate::Make(
    const CondPtr& c, const std::vector<std::string>& attrs, CondMode mode) {
  BatchPredicate out;
  out.mode_ = mode;

  auto resolve = [&](const std::string& name) -> StatusOr<uint32_t> {
    auto i = ResolveCondAttr(attrs, name);
    if (!i.ok()) return i.status();
    if (std::find(out.referenced_.begin(), out.referenced_.end(), *i) ==
        out.referenced_.end()) {
      out.referenced_.push_back(*i);
    }
    return static_cast<uint32_t>(*i);
  };

  // Postorder flattening over a virtual register stack: atoms push a fresh
  // register, ∧/∨ pop two and push their combination in place of the lower
  // one, so the program needs exactly condition-depth registers.
  uint32_t depth = 0;
  std::function<Status(const CondPtr&)> build = [&](const CondPtr& n) -> Status {
    Insn in;
    in.kind = n->kind;
    if (n->kind == CondKind::kAnd || n->kind == CondKind::kOr) {
      INCDB_RETURN_IF_ERROR(build(n->left));
      INCDB_RETURN_IF_ERROR(build(n->right));
      in.dst = depth - 2;
      in.src2 = depth - 1;
      out.prog_.push_back(std::move(in));
      --depth;
      return Status::OK();
    }
    const size_t operands = CondAttrOperands(n->kind);
    if (operands >= 1) {
      auto l = resolve(n->lhs);
      if (!l.ok()) return l.status();
      in.col = *l;
    }
    if (operands == 2) {
      auto r = resolve(n->rhs);
      if (!r.ok()) return r.status();
      in.col2 = *r;
    }
    if (KindHasConstant(n->kind)) in.constant = n->constant;
    in.dst = depth++;
    out.prog_.push_back(std::move(in));
    out.n_regs_ = std::max(out.n_regs_, depth);
    return Status::OK();
  };
  INCDB_RETURN_IF_ERROR(build(c));
  return out;
}

Status BatchPredicate::Validate(size_t input_arity) const {
  if (prog_.empty()) return Status::Internal("empty register program");
  auto bad_col = [&](uint32_t col) {
    return col >= input_arity ||
           std::find(referenced_.begin(), referenced_.end(), col) ==
               referenced_.end();
  };
  // Replay the postorder stack discipline Make() compiles: atoms push the
  // register at the current depth, ∧/∨ combine the two topmost in place of
  // the lower one. Any deviation means the program no longer computes a
  // single condition value in register 0.
  uint32_t depth = 0;
  uint32_t max_depth = 0;
  for (size_t pc = 0; pc < prog_.size(); ++pc) {
    const Insn& in = prog_[pc];
    const std::string at = " at instruction " + std::to_string(pc);
    if (in.kind == CondKind::kAnd || in.kind == CondKind::kOr) {
      if (depth < 2) return Status::Internal("stack underflow" + at);
      if (in.dst != depth - 2 || in.src2 != depth - 1) {
        return Status::Internal("connective registers break the postorder "
                                "stack discipline" +
                                at);
      }
      --depth;
      continue;
    }
    // kGeAttrConst is the last CondKind.
    if (in.kind > CondKind::kGeAttrConst) {
      return Status::Internal("unknown opcode" + at);
    }
    const size_t operands = CondAttrOperands(in.kind);
    if (operands == 2 && bad_col(in.col2)) {
      return Status::Internal("rhs column operand out of range" + at);
    }
    if (operands >= 1 && bad_col(in.col)) {
      return Status::Internal("column operand out of range" + at);
    }
    if (KindHasConstant(in.kind) && in.constant.is_param()) {
      return Status::Internal("unbound parameter placeholder" + at);
    }
    if (in.dst != depth) {
      return Status::Internal("atom writes register " +
                              std::to_string(in.dst) + ", stack top is " +
                              std::to_string(depth) + at);
    }
    ++depth;
    max_depth = std::max(max_depth, depth);
  }
  if (depth != 1) {
    return Status::Internal("program leaves " + std::to_string(depth) +
                            " value(s) on the register stack");
  }
  if (n_regs_ != max_depth) {
    return Status::Internal("register count " + std::to_string(n_regs_) +
                            " does not match the program's stack depth " +
                            std::to_string(max_depth));
  }
  for (size_t col : referenced_) {
    if (col >= input_arity) {
      return Status::Internal("referenced column " + std::to_string(col) +
                              " out of range for arity " +
                              std::to_string(input_arity));
    }
  }
  if (mode_ != CondMode::kNaive && mode_ != CondMode::kSql &&
      mode_ != CondMode::kUnif) {
    return Status::Internal("invalid condition mode");
  }
  return Status::OK();
}

void BatchPredicate::Run(const Batch& b, Scratch* s) const {
  const size_t n = b.rows;
  if (s->regs.size() < n_regs_) s->regs.resize(n_regs_);
  for (uint32_t r = 0; r < n_regs_; ++r) {
    if (s->regs[r].size() < n) s->regs[r].resize(n);
  }
  const CondMode mode = mode_;
  for (const Insn& in : prog_) {
    uint8_t* dst = s->regs[in.dst].data();
    switch (in.kind) {
      case CondKind::kTrue:
        std::fill(dst, dst + n, kT8);
        break;
      case CondKind::kFalse:
        std::fill(dst, dst + n, kF8);
        break;
      case CondKind::kAnd: {
        const uint8_t* b2 = s->regs[in.src2].data();
        for (size_t i = 0; i < n; ++i) dst[i] = std::min(dst[i], b2[i]);
        break;
      }
      case CondKind::kOr: {
        const uint8_t* b2 = s->regs[in.src2].data();
        for (size_t i = 0; i < n; ++i) dst[i] = std::max(dst[i], b2[i]);
        break;
      }
      case CondKind::kEqAttrAttr: {
        const BatchColumn a = b.cols[in.col], c2 = b.cols[in.col2];
        for (size_t i = 0; i < n; ++i) {
          dst[i] = ToU8(CondEqTV(a.At(i), c2.At(i), mode));
        }
        break;
      }
      case CondKind::kNeqAttrAttr: {
        const BatchColumn a = b.cols[in.col], c2 = b.cols[in.col2];
        for (size_t i = 0; i < n; ++i) {
          dst[i] = 2 - ToU8(CondEqTV(a.At(i), c2.At(i), mode));
        }
        break;
      }
      case CondKind::kEqAttrConst: {
        const BatchColumn a = b.cols[in.col];
        for (size_t i = 0; i < n; ++i) {
          dst[i] = ToU8(CondEqTV(a.At(i), in.constant, mode));
        }
        break;
      }
      case CondKind::kNeqAttrConst: {
        const BatchColumn a = b.cols[in.col];
        for (size_t i = 0; i < n; ++i) {
          dst[i] = 2 - ToU8(CondEqTV(a.At(i), in.constant, mode));
        }
        break;
      }
      case CondKind::kIsConst: {
        const BatchColumn a = b.cols[in.col];
        for (size_t i = 0; i < n; ++i) {
          dst[i] = ToU8(FromBool(a.At(i).is_const()));
        }
        break;
      }
      case CondKind::kIsNull: {
        const BatchColumn a = b.cols[in.col];
        for (size_t i = 0; i < n; ++i) {
          dst[i] = ToU8(FromBool(a.At(i).is_null()));
        }
        break;
      }
      case CondKind::kLtAttrAttr: {
        const BatchColumn a = b.cols[in.col], c2 = b.cols[in.col2];
        for (size_t i = 0; i < n; ++i) {
          dst[i] = ToU8(CondOrderTV(a.At(i), c2.At(i), /*strict=*/true, mode));
        }
        break;
      }
      case CondKind::kLeAttrAttr: {
        const BatchColumn a = b.cols[in.col], c2 = b.cols[in.col2];
        for (size_t i = 0; i < n; ++i) {
          dst[i] = ToU8(CondOrderTV(a.At(i), c2.At(i), /*strict=*/false, mode));
        }
        break;
      }
      case CondKind::kLtAttrConst: {
        const BatchColumn a = b.cols[in.col];
        for (size_t i = 0; i < n; ++i) {
          dst[i] =
              ToU8(CondOrderTV(a.At(i), in.constant, /*strict=*/true, mode));
        }
        break;
      }
      case CondKind::kLeAttrConst: {
        const BatchColumn a = b.cols[in.col];
        for (size_t i = 0; i < n; ++i) {
          dst[i] =
              ToU8(CondOrderTV(a.At(i), in.constant, /*strict=*/false, mode));
        }
        break;
      }
      case CondKind::kGtAttrConst: {
        // A > c ≡ c < A.
        const BatchColumn a = b.cols[in.col];
        for (size_t i = 0; i < n; ++i) {
          dst[i] =
              ToU8(CondOrderTV(in.constant, a.At(i), /*strict=*/true, mode));
        }
        break;
      }
      case CondKind::kGeAttrConst: {
        const BatchColumn a = b.cols[in.col];
        for (size_t i = 0; i < n; ++i) {
          dst[i] =
              ToU8(CondOrderTV(in.constant, a.At(i), /*strict=*/false, mode));
        }
        break;
      }
    }
  }
}

void BatchPredicate::SelectTrue(const Batch& b, Scratch* scratch,
                                SelVector* sel) const {
  Run(b, scratch);
  const uint8_t* res = scratch->regs[0].data();
  for (size_t i = 0; i < b.rows; ++i) {
    if (res[i] == kT8) sel->push_back(static_cast<uint32_t>(i));
  }
}

void BatchPredicate::EvalTruth(const Batch& b, Scratch* scratch,
                               uint8_t* out) const {
  Run(b, scratch);
  const uint8_t* res = scratch->regs[0].data();
  std::copy(res, res + b.rows, out);
}

}  // namespace incdb
