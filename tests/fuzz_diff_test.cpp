// Differential query fuzzer: seeded random algebra queries
// (tests/testing_util.h RandomQueryGen) evaluated through the compiled
// physical-plan pipeline — across all three modes, every rewrite-pass
// toggle and num_threads ∈ {1, 2, 8} — must agree with a naive reference
// walk that shares nothing with the plan layer (no lowering, no rewrite
// passes, no hashing fast paths, no thread pool: just nested loops over
// the algebra tree).
//
// Environment knobs (all optional; see BUILDING.md "Differential fuzzer"):
//   INCDB_FUZZ_SEED      base RNG seed (default 20260730)
//   INCDB_FUZZ_CASES     cases per mode (default 500)
//   INCDB_FUZZ_THREADS   one extra thread count to test (CI uses 4)
//
// A second corpus (RandomJoinTree) draws σ over 3–4-input ×/⋈ trees for
// the compiler's join-graph planning, a third (RandomResidualQuery)
// every residual shape of the binary operators, each run again where a
// stored relation's key indexes are reused or built anew, and a fourth
// the Fig. 2(b) Q+ and Q? of RandomQueryGen queries, from the same seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "algebra/builder.h"
#include "api/session.h"
#include "approx/approx.h"
#include "eval/eval.h"
#include "eval/plan.h"
#include "tests/testing_util.h"

namespace incdb {
namespace {

using testing_util::EnvOr;
using testing_util::FreshStates;
using testing_util::RandomBagDatabase;
using testing_util::RandomDatabase;
using testing_util::RandomQueryGen;

// ---------------------------------------------------------------------------
// The reference walk. Deliberately dumb: linear scans instead of hash
// lookups, materialised products, per-node condition evaluation — obvious
// enough to trust against the paper's definitions (§4.1 naive set, §4.2
// bags, §5.2 SQL 3VL).

CondMode RefCondMode(EvalMode mode) {
  return mode == EvalMode::kSetSql ? CondMode::kSql : CondMode::kNaive;
}

bool RefSetSemantics(EvalMode mode) { return mode != EvalMode::kBagNaive; }

/// Occurrences of `t` in `rel` by linear scan (syntactic equality).
uint64_t RefCount(const Relation& rel, const Tuple& t) {
  uint64_t n = 0;
  for (const auto& [s, c] : rel.rows()) {
    if (s == t) n += c;
  }
  return n;
}

StatusOr<Relation> RefEval(const AlgPtr& q, const Database& db,
                           EvalMode mode);

/// θ on tuples of schema `attrs`, read by the tests' own interpreter
/// (testing_util::RefCondTruth), which shares no compile step with the
/// engine's columnar program.
StatusOr<std::function<TV3(const Tuple&)>> RefPred(
    const CondPtr& c, const std::vector<std::string>& attrs, EvalMode mode) {
  for (const std::string& a : CondAttrs(c)) {
    if (IndexOf(attrs, a) == attrs.size()) {
      return Status::NotFound("reference walk: unknown attribute " + a);
    }
  }
  return std::function<TV3(const Tuple&)>(
      [c, attrs, m = RefCondMode(mode)](const Tuple& t) {
        return testing_util::RefCondTruth(c, attrs, t, m);
      });
}

/// σ_θ-style EXISTS probe shared by semijoin/antijoin.
StatusOr<Relation> RefSemiAnti(const AlgPtr& q, const Database& db,
                               EvalMode mode, bool anti) {
  auto l = RefEval(q->left, db, mode);
  if (!l.ok()) return l;
  auto r = RefEval(q->right, db, mode);
  if (!r.ok()) return r;
  std::vector<std::string> joint = l->attrs();
  joint.insert(joint.end(), r->attrs().begin(), r->attrs().end());
  auto pred = RefPred(q->cond, joint, mode);
  if (!pred.ok()) return pred.status();
  Relation out(l->attrs());
  for (const auto& [lt, lc] : l->rows()) {
    bool exists = false;
    for (const auto& [rt, rc] : r->rows()) {
      Tuple pair = lt;
      for (size_t i = 0; i < rt.arity(); ++i) pair.Append(rt[i]);
      if ((*pred)(pair) == TV3::kT) {
        exists = true;
        break;
      }
    }
    if (exists != anti) {
      INCDB_RETURN_IF_ERROR(
          out.Insert(lt, RefSetSemantics(mode) ? 1 : lc));
    }
  }
  return out;
}

StatusOr<Relation> RefInPredicate(const AlgPtr& q, const Database& db,
                                  EvalMode mode, bool negated) {
  auto l = RefEval(q->left, db, mode);
  if (!l.ok()) return l;
  auto r = RefEval(q->right, db, mode);
  if (!r.ok()) return r;
  std::vector<std::string> joint = l->attrs();
  joint.insert(joint.end(), r->attrs().begin(), r->attrs().end());
  auto pred = RefPred(q->cond, joint, mode);
  if (!pred.ok()) return pred.status();
  std::vector<size_t> lpos, rpos;
  for (const std::string& a : q->attrs) {
    size_t i = IndexOf(l->attrs(), a);
    if (i == l->attrs().size()) return Status::NotFound("IN column " + a);
    lpos.push_back(i);
  }
  for (const std::string& a : q->attrs2) {
    size_t i = IndexOf(r->attrs(), a);
    if (i == r->attrs().size()) return Status::NotFound("IN column " + a);
    rpos.push_back(i);
  }
  const bool sql = mode == EvalMode::kSetSql;
  Relation out(l->attrs());
  for (const auto& [lt, lc] : l->rows()) {
    Tuple lkey = lt.Project(lpos);
    bool exists_t = false;
    bool all_f = true;
    for (const auto& [rt, rc] : r->rows()) {
      Tuple pair = lt;
      for (size_t i = 0; i < rt.arity(); ++i) pair.Append(rt[i]);
      if ((*pred)(pair) != TV3::kT) continue;
      Tuple rkey = rt.Project(rpos);
      if (sql) {
        TV3 tv = SqlTupleEq(lkey, rkey);
        if (tv == TV3::kT) exists_t = true;
        if (tv != TV3::kF) all_f = false;
      } else if (lkey == rkey) {
        exists_t = true;
        all_f = false;
      }
    }
    if (negated ? all_f : exists_t) {
      INCDB_RETURN_IF_ERROR(
          out.Insert(lt, RefSetSemantics(mode) ? 1 : lc));
    }
  }
  return out;
}

StatusOr<Relation> RefEval(const AlgPtr& q, const Database& db,
                           EvalMode mode) {
  const bool set = RefSetSemantics(mode);
  const bool sql = mode == EvalMode::kSetSql;
  switch (q->kind) {
    case OpKind::kScan: {
      auto rel = db.Get(q->rel_name);
      if (!rel.ok()) return rel;
      return set ? rel->ToSet() : *rel;
    }
    case OpKind::kSelect: {
      auto in = RefEval(q->left, db, mode);
      if (!in.ok()) return in;
      auto pred = RefPred(q->cond, in->attrs(), mode);
      if (!pred.ok()) return pred.status();
      Relation out(in->attrs());
      for (const auto& [t, c] : in->rows()) {
        if ((*pred)(t) == TV3::kT) INCDB_RETURN_IF_ERROR(out.Insert(t, c));
      }
      return out;
    }
    case OpKind::kProject: {
      auto in = RefEval(q->left, db, mode);
      if (!in.ok()) return in;
      std::vector<size_t> pos;
      for (const std::string& a : q->attrs) {
        size_t i = IndexOf(in->attrs(), a);
        if (i == in->attrs().size()) {
          return Status::NotFound("projection attribute " + a);
        }
        pos.push_back(i);
      }
      Relation out(q->attrs);
      for (const auto& [t, c] : in->rows()) {
        INCDB_RETURN_IF_ERROR(out.Insert(t.Project(pos), c));
      }
      if (set) out = out.ToSet();
      return out;
    }
    case OpKind::kRename: {
      auto in = RefEval(q->left, db, mode);
      if (!in.ok()) return in;
      Relation out = *in;
      INCDB_RETURN_IF_ERROR(out.RenameAttrs(q->attrs));
      return out;
    }
    case OpKind::kProduct:
    case OpKind::kJoin: {
      auto l = RefEval(q->left, db, mode);
      if (!l.ok()) return l;
      auto r = RefEval(q->right, db, mode);
      if (!r.ok()) return r;
      std::vector<std::string> joint = l->attrs();
      joint.insert(joint.end(), r->attrs().begin(), r->attrs().end());
      CondPtr cond = q->kind == OpKind::kJoin ? q->cond : CTrue();
      auto pred = RefPred(cond, joint, mode);
      if (!pred.ok()) return pred.status();
      Relation out(joint);
      for (const auto& [lt, lc] : l->rows()) {
        for (const auto& [rt, rc] : r->rows()) {
          Tuple pair = lt;
          for (size_t i = 0; i < rt.arity(); ++i) pair.Append(rt[i]);
          if ((*pred)(pair) == TV3::kT) {
            INCDB_RETURN_IF_ERROR(out.Insert(pair, set ? 1 : lc * rc));
          }
        }
      }
      return out;
    }
    case OpKind::kUnion: {
      auto l = RefEval(q->left, db, mode);
      if (!l.ok()) return l;
      auto r = RefEval(q->right, db, mode);
      if (!r.ok()) return r;
      Relation out = *l;
      for (const auto& [t, c] : r->rows()) {
        INCDB_RETURN_IF_ERROR(out.Insert(t, c));
      }
      if (set) out = out.ToSet();
      return out;
    }
    case OpKind::kDifference: {
      auto l = RefEval(q->left, db, mode);
      if (!l.ok()) return l;
      auto r = RefEval(q->right, db, mode);
      if (!r.ok()) return r;
      Relation out(l->attrs());
      for (const auto& [t, c] : l->rows()) {
        if (sql) {
          // NOT IN: keep only when every pairwise comparison is kF.
          bool keep = true;
          for (const auto& [s, sc] : r->rows()) {
            if (SqlTupleEq(t, s) != TV3::kF) {
              keep = false;
              break;
            }
          }
          if (keep) INCDB_RETURN_IF_ERROR(out.Insert(t, 1));
        } else {
          uint64_t rc = RefCount(*r, t);
          if (set) {
            if (rc == 0) INCDB_RETURN_IF_ERROR(out.Insert(t, 1));
          } else if (c > rc) {
            INCDB_RETURN_IF_ERROR(out.Insert(t, c - rc));
          }
        }
      }
      return out;
    }
    case OpKind::kIntersect: {
      auto l = RefEval(q->left, db, mode);
      if (!l.ok()) return l;
      auto r = RefEval(q->right, db, mode);
      if (!r.ok()) return r;
      Relation out(l->attrs());
      for (const auto& [t, c] : l->rows()) {
        if (sql) {
          // IN: keep when some pairwise comparison is kT.
          for (const auto& [s, sc] : r->rows()) {
            if (SqlTupleEq(t, s) == TV3::kT) {
              INCDB_RETURN_IF_ERROR(out.Insert(t, 1));
              break;
            }
          }
        } else {
          uint64_t rc = RefCount(*r, t);
          if (rc > 0) {
            INCDB_RETURN_IF_ERROR(
                out.Insert(t, set ? 1 : std::min(c, rc)));
          }
        }
      }
      return out;
    }
    case OpKind::kAntijoinUnify: {
      auto l = RefEval(q->left, db, mode);
      if (!l.ok()) return l;
      auto r = RefEval(q->right, db, mode);
      if (!r.ok()) return r;
      Relation out(l->attrs());
      for (const auto& [t, c] : l->rows()) {
        bool unifiable = false;
        for (const auto& [s, sc] : r->rows()) {
          if (Unifiable(t, s)) {
            unifiable = true;
            break;
          }
        }
        if (!unifiable) {
          INCDB_RETURN_IF_ERROR(out.Insert(t, set ? 1 : c));
        }
      }
      return out;
    }
    case OpKind::kSemijoin:
      return RefSemiAnti(q, db, mode, /*anti=*/false);
    case OpKind::kAntijoin:
      return RefSemiAnti(q, db, mode, /*anti=*/true);
    case OpKind::kIn:
      return RefInPredicate(q, db, mode, /*negated=*/false);
    case OpKind::kNotIn:
      return RefInPredicate(q, db, mode, /*negated=*/true);
    case OpKind::kDistinct: {
      auto in = RefEval(q->left, db, mode);
      if (!in.ok()) return in;
      return in->ToSet();
    }
    default:
      return Status::Unsupported("reference walk: operator not generated");
  }
}

// ---------------------------------------------------------------------------
// The differential loop.

struct FuzzConfig {
  std::string label;
  EvalOptions opts;
  size_t serial;  ///< index of the 1-thread config with the same base
};

/// Every rewrite pass individually off, everything on, everything off —
/// the matrix the plan layer must be invisible on — crossed with the
/// tested thread counts (parallel_min_rows = 0 forces the parallel
/// operators even on fuzz-sized inputs). The 1-thread config of each base
/// comes first.
std::vector<FuzzConfig> FuzzConfigs() {
  std::vector<size_t> thread_counts = {1, 2, 8};
  if (uint64_t extra = EnvOr("INCDB_FUZZ_THREADS", 0)) {
    thread_counts.push_back(extra);
  }
  std::vector<std::pair<std::string, EvalOptions>> bases;
  bases.push_back({"all", EvalOptions{}});
  {
    EvalOptions o;
    o.enable_hash_join = false;
    bases.push_back({"-hash", o});
  }
  {
    EvalOptions o;
    o.enable_or_expansion = false;
    bases.push_back({"-or", o});
  }
  {
    EvalOptions o;
    o.enable_projection_fusion = false;
    bases.push_back({"-fusion", o});
  }
  {
    EvalOptions o;
    o.enable_unify_index = false;
    bases.push_back({"-unify", o});
  }
  {
    EvalOptions o;
    o.enable_selection_pushdown = false;
    bases.push_back({"-pushdown", o});
  }
  {
    EvalOptions o;
    o.enable_hash_join = false;
    o.enable_or_expansion = false;
    o.enable_projection_fusion = false;
    o.enable_unify_index = false;
    o.enable_selection_pushdown = false;
    bases.push_back({"none", o});
  }
  std::vector<FuzzConfig> configs;
  for (const auto& [name, base] : bases) {
    const size_t serial = configs.size();
    for (size_t threads : thread_counts) {
      EvalOptions o = base;
      o.num_threads = threads;
      o.parallel_min_rows = 0;
      configs.push_back(
          {name + "/t" + std::to_string(threads), o, serial});
    }
  }
  // The window-size matrix: the degenerate single-row window (1), a
  // deliberately awkward window that straddles every boundary (3), and
  // the default (1024, already covered by the base configs above).
  // Bit-identity across all of them is the windowing contract.
  for (size_t batch : {size_t{1}, size_t{3}}) {
    const size_t serial = configs.size();
    for (size_t threads : thread_counts) {
      EvalOptions o;
      o.num_threads = threads;
      o.parallel_min_rows = 0;
      o.batch_size = batch;
      configs.push_back({"all/b" + std::to_string(batch) + "/t" +
                             std::to_string(threads),
                         o, serial});
    }
  }
  return configs;
}

void RunDifferential(EvalMode mode,
                     StatusOr<Relation> (*eval)(const AlgPtr&,
                                                const Database&,
                                                const EvalOptions&)) {
  const uint64_t seed = EnvOr("INCDB_FUZZ_SEED", 20260730);
  const uint64_t cases = EnvOr("INCDB_FUZZ_CASES", 500);
  std::mt19937_64 rng(seed ^ (static_cast<uint64_t>(mode) << 32));
  RandomQueryGen gen(rng);
  const std::vector<FuzzConfig> configs = FuzzConfigs();
  for (uint64_t i = 0; i < cases; ++i) {
    const size_t tuples = 3 + i % 4;
    Database db = (i % 2 == 0) ? RandomDatabase(rng, tuples)
                               : RandomBagDatabase(rng, tuples);
    AlgPtr q = gen.Gen(2 + static_cast<int>(i % 3));
    auto ref = RefEval(q, db, mode);
    ASSERT_TRUE(ref.ok()) << "case " << i << " reference failed for "
                          << q->ToString() << ": "
                          << ref.status().ToString();
    std::vector<Relation> results;
    results.reserve(configs.size());
    for (const FuzzConfig& cfg : configs) {
      auto res = eval(q, db, cfg.opts);
      ASSERT_TRUE(res.ok())
          << "case " << i << " [" << cfg.label << "] failed for "
          << q->ToString() << ": " << res.status().ToString();
      ASSERT_TRUE(ref->SameRows(*res))
          << "case " << i << " [" << cfg.label << "] diverges for "
          << q->ToString() << "\nreference:\n"
          << ref->ToString() << "\nplan:\n"
          << res->ToString();
      ASSERT_EQ(ref->attrs(), res->attrs())
          << "case " << i << " [" << cfg.label << "] schema diverges for "
          << q->ToString();
      // Threads never change the row order.
      if (cfg.opts.num_threads > 1) {
        const Relation& serial = results[cfg.serial];
        ASSERT_TRUE(serial.IdenticalTo(*res))
            << "case " << i << " [" << cfg.label
            << "] row order differs from [" << configs[cfg.serial].label
            << "] for " << q->ToString() << "\n1 thread:\n"
            << serial.ToString() << "\n" << cfg.opts.num_threads
            << " threads:\n" << res->ToString();
      }
      results.push_back(std::move(*res));
    }
  }
}

TEST(FuzzDiffTest, SetModeAgreesWithReferenceWalk) {
  RunDifferential(EvalMode::kSetNaive, &EvalSet);
}

TEST(FuzzDiffTest, BagModeAgreesWithReferenceWalk) {
  RunDifferential(EvalMode::kBagNaive, &EvalBag);
}

TEST(FuzzDiffTest, SqlModeAgreesWithReferenceWalk) {
  RunDifferential(EvalMode::kSetSql, &EvalSql);
}

// ---------------------------------------------------------------------------
// The join-graph corpus: σ over random 3–4-input ×/⋈ trees, the shape the
// compiler flattens and re-plans from its join graph. Inputs are R, S or T
// renamed apart; conjuncts are =, ≠ and order comparisons between two
// inputs, comparisons with constants on one, and the θ? disjunction
// a = b ∨ null(a) ∨ null(b) that Fig. 2(b) makes of an equality. Each
// conjunct sits in the top σ or in a ⋈ that covers it, and in half the
// cases no conjunct joins the first two inputs, so the planner has to
// attach a later input first. Half the trees sit under a π onto some of
// their columns in random order, which the top join fuses.

AlgPtr RandomJoinTree(std::mt19937_64& rng) {
  const size_t n = 3 + rng() % 2;
  std::vector<AlgPtr> inputs;
  std::vector<std::vector<std::string>> attrs(n);
  for (size_t i = 0; i < n; ++i) {
    const std::string base(1, "RST"[rng() % 3]);
    const size_t arity = base == "T" ? 1 : 2;
    for (size_t k = 0; k < arity; ++k) {
      attrs[i].push_back("j" + std::to_string(i) + "_" + std::to_string(k));
    }
    inputs.push_back(Rename(Scan(base), attrs[i]));
  }
  auto attr = [&](size_t i) { return attrs[i][rng() % attrs[i].size()]; };
  auto constant = [&] { return Value::Int(static_cast<int64_t>(rng() % 3)); };
  // (conjunct, lowest input it reads, highest input it reads)
  struct Conj {
    CondPtr cond;
    size_t lo, hi;
  };
  std::vector<Conj> conj;
  const bool split_first_two = rng() % 2 == 0;
  const size_t pairs = 1 + rng() % 4;
  for (size_t p = 0; p < pairs; ++p) {
    size_t i = rng() % n, j = rng() % n;
    if (i == j) j = (i + 1) % n;
    if (i > j) std::swap(i, j);
    if (split_first_two && i == 0 && j == 1) j = 2;
    const std::string a = attr(i), b = attr(j);
    CondPtr c;
    switch (rng() % 6) {
      case 0:
      case 1:
        c = CEq(a, b);
        break;
      case 2:
        c = CNeq(a, b);
        break;
      case 3:
        c = rng() % 2 == 0 ? CLt(a, b) : CLe(b, a);
        break;
      default:
        c = COr(COr(CEq(a, b), CIsNull(a)), CIsNull(b));
        break;
    }
    conj.push_back({c, i, j});
  }
  for (size_t k = rng() % 3; k > 0; --k) {
    const size_t i = rng() % n;
    const std::string a = attr(i);
    CondPtr c;
    switch (rng() % 4) {
      case 0:
        c = CEqc(a, constant());
        break;
      case 1:
        c = CNeqc(a, constant());
        break;
      case 2:
        c = CLtc(a, constant());
        break;
      default:
        c = CGec(a, constant());
        break;
    }
    conj.push_back({c, i, i});
  }
  std::vector<bool> placed(conj.size(), false);
  // A random binary tree over inputs [lo, hi); each ⋈ takes, with
  // probability ½, every unplaced conjunct it covers.
  std::function<AlgPtr(size_t, size_t)> build = [&](size_t lo,
                                                    size_t hi) -> AlgPtr {
    if (hi - lo == 1) return inputs[lo];
    const size_t mid = lo + 1 + rng() % (hi - lo - 1);
    AlgPtr l = build(lo, mid);
    AlgPtr r = build(mid, hi);
    if (rng() % 2 == 0) return Product(l, r);
    std::vector<CondPtr> here;
    for (size_t c = 0; c < conj.size(); ++c) {
      if (!placed[c] && conj[c].lo >= lo && conj[c].hi < hi &&
          rng() % 2 == 0) {
        placed[c] = true;
        here.push_back(conj[c].cond);
      }
    }
    return Join(l, r, CAndAll(here));
  };
  AlgPtr tree = build(0, n);
  std::vector<CondPtr> top;
  for (size_t c = 0; c < conj.size(); ++c) {
    if (!placed[c]) top.push_back(conj[c].cond);
  }
  if (!top.empty()) tree = Select(tree, CAndAll(top));
  if (rng() % 2 == 0) return tree;
  std::vector<std::string> cols;
  for (const std::vector<std::string>& in : attrs) {
    cols.insert(cols.end(), in.begin(), in.end());
  }
  std::shuffle(cols.begin(), cols.end(), rng);
  cols.resize(1 + rng() % cols.size());
  return Project(tree, cols);
}

TEST(FuzzDiffTest, JoinGraphPlansAgreeWithReferenceWalk) {
  const uint64_t seed = EnvOr("INCDB_FUZZ_SEED", 20260730);
  const uint64_t cases = EnvOr("INCDB_FUZZ_CASES", 500);
  using Eval = StatusOr<Relation> (*)(const AlgPtr&, const Database&,
                                      const EvalOptions&);
  const std::pair<EvalMode, Eval> modes[] = {
      {EvalMode::kSetNaive, &EvalSet},
      {EvalMode::kBagNaive, &EvalBag},
      {EvalMode::kSetSql, &EvalSql}};
  EvalOptions one, four;
  four.num_threads = 4;
  four.parallel_min_rows = 0;
  std::mt19937_64 rng(seed ^ 0x6a6f696e67726170ull);
  for (uint64_t i = 0; i < cases; ++i) {
    const size_t tuples = 3 + i % 4;
    Database db = (i % 2 == 0) ? RandomDatabase(rng, tuples)
                               : RandomBagDatabase(rng, tuples);
    AlgPtr q = RandomJoinTree(rng);
    for (const auto& [mode, eval] : modes) {
      const std::string where = "case " + std::to_string(i) + " (mode " +
                                std::to_string(static_cast<int>(mode)) +
                                ") " + q->ToString();
      auto ref = RefEval(q, db, mode);
      ASSERT_TRUE(ref.ok()) << where << ": " << ref.status().ToString();
      auto seq = eval(q, db, one);
      auto par = eval(q, db, four);
      ASSERT_TRUE(seq.ok() && par.ok())
          << where << ": " << seq.status().ToString() << " / "
          << par.status().ToString();
      ASSERT_TRUE(ref->SameRows(*seq))
          << where << "\nreference:\n" << ref->ToString() << "\nplan:\n"
          << seq->ToString();
      ASSERT_EQ(ref->attrs(), seq->attrs()) << where;
      ASSERT_TRUE(seq->IdenticalTo(*par)) << where << ": 1 vs 4 threads";
    }
  }
}

// ---------------------------------------------------------------------------
// The residual corpus: every shape in which a binary operator evaluates its
// condition through the partner selection (eval/kernel.h) — a hash join
// whose residual reads both sides, keyed and keyless ⋉/▷ whose residual
// reads right columns, residuals that read only left columns, ⋉/▷ on
// θ?-equalities (null-aware keys) alone, beside a left-only or a cross
// residual and beside a plain key, and [NOT] IN over one or two compare
// columns, correlated and uncorrelated. R(R_a, R_b) is the left input, S
// renamed to (S_x, S_y) the right; the databases are larger than the main
// corpus's so keyless probes sweep more than one 16-row window.

/// A random condition whose first atom compares a left with a right
/// column, so it stays a residual however the rest falls. It reads the
/// right columns `right`.
CondPtr RandomCrossCond(std::mt19937_64& rng, int depth,
                        const std::vector<std::string>& right = {"S_x",
                                                                 "S_y"}) {
  const char* left[] = {"R_a", "R_b"};
  auto l = [&] { return std::string(left[rng() % 2]); };
  auto r = [&] { return right[rng() % right.size()]; };
  auto k = [&] { return Value::Int(static_cast<int64_t>(rng() % 3)); };
  CondPtr c;
  switch (rng() % 4) {
    case 0:
      c = CLt(l(), r());
      break;
    case 1:
      c = CNeq(r(), l());
      break;
    case 2:
      c = CLe(r(), l());
      break;
    default:
      c = CEq(l(), r());
      break;
  }
  for (int d = 0; d < depth; ++d) {
    CondPtr a;
    switch (rng() % 5) {
      case 0:
        a = CIsNull(rng() % 2 == 0 ? l() : r());
        break;
      case 1:
        a = CNeqc(r(), k());
        break;
      case 2:
        a = CGec(l(), k());
        break;
      case 3:
        a = CLt(r(), l());
        break;
      default:
        a = CEq(l(), r());
        break;
    }
    c = rng() % 2 == 0 ? CAnd(c, a) : COr(c, a);
  }
  return c;
}

/// A condition over the left columns only.
CondPtr RandomLeftCond(std::mt19937_64& rng) {
  switch (rng() % 3) {
    case 0:
      return CIsNull("R_a");
    case 1:
      return CLtc("R_b", Value::Int(static_cast<int64_t>(rng() % 3)));
    default:
      return COr(CNeq("R_a", "R_b"), CIsNull("R_b"));
  }
}

/// The θ? of the Fig. 2(b) ▷ rule for a = b, a = b ∨ null(a) ∨ null(b),
/// with the equality's operands in either order and the ∨s nested to the
/// right (as MaybeCond builds it) or to the left.
CondPtr RandomMaybeEq(std::mt19937_64& rng, const std::string& a,
                      const std::string& b) {
  const CondPtr eq = rng() % 2 == 0 ? CEq(a, b) : CEq(b, a);
  if (rng() % 2 == 0) return COr(eq, COr(CIsNull(a), CIsNull(b)));
  return COr(COr(eq, CIsNull(a)), CIsNull(b));
}

AlgPtr RandomResidualQuery(std::mt19937_64& rng) {
  const AlgPtr r = Scan("R");
  const AlgPtr s = Rename(Scan("S"), {"S_x", "S_y"});
  const CondPtr key = CEq("R_b", "S_x");
  const bool anti = rng() % 2 == 0;
  auto semi_over = [&](const AlgPtr& right, const CondPtr& c) {
    return anti ? Antijoin(r, right, c) : Semijoin(r, right, c);
  };
  auto semi = [&](const CondPtr& c) { return semi_over(s, c); };
  const int depth = static_cast<int>(rng() % 3);
  // One or two θ?-equalities between a left and a right column.
  auto maybe_eqs = [&] {
    CondPtr c = RandomMaybeEq(rng, "R_b", "S_x");
    return rng() % 2 == 0 ? c : CAnd(c, RandomMaybeEq(rng, "R_a", "S_y"));
  };
  switch (rng() % 10) {
    case 0:  // hash join, residual over both sides
      return Join(r, s, CAnd(key, RandomCrossCond(rng, depth)));
    case 1:  // keyed ⋉/▷
      return semi(CAnd(key, RandomCrossCond(rng, depth)));
    case 2:  // keyless ⋉/▷
      return semi(RandomCrossCond(rng, depth));
    case 3: {  // a residual that reads only left columns
      const CondPtr left = RandomLeftCond(rng);
      switch (rng() % 3) {
        case 0:
          return semi(CAnd(key, left));
        case 1:
          return semi(left);
        default:  // stays a join residual with pushdown off
          return Join(r, s, CAnd(key, left));
      }
    }
    case 4:  // null-aware keys alone, or beside a left-only residual
      return semi(rng() % 2 == 0 ? maybe_eqs()
                                 : CAnd(maybe_eqs(), RandomLeftCond(rng)));
    case 5:  // null-aware keys beside a cross residual, or a plain key
      return semi(rng() % 2 == 0
                      ? CAnd(maybe_eqs(), RandomCrossCond(rng, depth))
                      : CAnd(maybe_eqs(), CEq("R_a", "S_y")));
    case 6: {  // [NOT] IN over two compare columns
      const CondPtr theta =
          rng() % 2 == 0 ? CTrue() : RandomCrossCond(rng, depth);
      return rng() % 2 == 0
                 ? InPredicate(r, s, {"R_a", "R_b"}, {"S_x", "S_y"}, theta)
                 : NotInPredicate(r, s, {"R_b", "R_a"}, {"S_x", "S_y"},
                                  theta);
    }
    case 8: {  // correlated [NOT] IN
      const CondPtr theta = RandomCrossCond(rng, depth);
      return rng() % 2 == 0
                 ? InPredicate(r, s, {"R_a"}, {"S_x"}, theta)
                 : NotInPredicate(r, s, {"R_a"}, {"S_y"}, theta);
    }
    default: {
      // A π or δ over the renamed scan as the right input, which the
      // compiler reads past, so S_x repeats where π{S_x} had one row per
      // value. The last π drops a column named like a left one: reading
      // past it would clash, so it stays.
      AlgPtr right;
      switch (rng() % 4) {
        case 0:
          right = Project(s, {"S_x"});
          break;
        case 1:
          right = Distinct(Project(s, {"S_x"}));
          break;
        case 2:
          right = Distinct(s);
          break;
        default:
          right = Project(Rename(Scan("S"), {"S_x", "R_a"}), {"S_x"});
          break;
      }
      const CondPtr cross = RandomCrossCond(rng, depth, {"S_x"});
      switch (rng() % 3) {
        case 0:  // plain key
          return semi_over(right, CAnd(CEq("R_b", "S_x"), cross));
        case 1:  // null-aware key
          return semi_over(right, rng() % 2 == 0
                                      ? RandomMaybeEq(rng, "R_b", "S_x")
                                      : CAnd(RandomMaybeEq(rng, "R_a", "S_x"),
                                             cross));
        default: {
          const CondPtr theta = rng() % 2 == 0 ? CTrue() : cross;
          return rng() % 2 == 0
                     ? InPredicate(r, right, {"R_b"}, {"S_x"}, theta)
                     : NotInPredicate(r, right, {"R_a"}, {"S_x"}, theta);
        }
      }
    }
  }
}

TEST(FuzzDiffTest, ResidualsAgreeWithReferenceWalk) {
  const uint64_t seed = EnvOr("INCDB_FUZZ_SEED", 20260730);
  const uint64_t cases = EnvOr("INCDB_FUZZ_CASES", 500) / 2;
  using Eval = StatusOr<Relation> (*)(const AlgPtr&, const Database&,
                                      const EvalOptions&);
  const std::pair<EvalMode, Eval> modes[] = {
      {EvalMode::kSetNaive, &EvalSet},
      {EvalMode::kBagNaive, &EvalBag},
      {EvalMode::kSetSql, &EvalSql}};
  std::vector<size_t> thread_counts = {1, 2, 8};
  if (uint64_t extra = EnvOr("INCDB_FUZZ_THREADS", 0)) {
    thread_counts.push_back(extra);
  }
  std::mt19937_64 rng(seed ^ 0x7265736964756aull);
  for (uint64_t i = 0; i < cases; ++i) {
    const size_t tuples = 8 + i % 24;
    Database db = (i % 2 == 0) ? RandomDatabase(rng, tuples, 5, 2)
                               : RandomBagDatabase(rng, tuples, 5, 2);
    AlgPtr q = RandomResidualQuery(rng);
    for (const auto& [mode, eval] : modes) {
      const std::string where = "case " + std::to_string(i) + " (mode " +
                                std::to_string(static_cast<int>(mode)) +
                                ") " + q->ToString();
      auto ref = RefEval(q, db, mode);
      ASSERT_TRUE(ref.ok()) << where << ": " << ref.status().ToString();
      for (bool pushdown : {true, false}) {
        for (size_t batch : {size_t{1}, size_t{3}, size_t{1024}}) {
          std::optional<Relation> serial;
          for (size_t threads : thread_counts) {
            EvalOptions o;
            o.enable_selection_pushdown = pushdown;
            o.batch_size = batch;
            o.num_threads = threads;
            o.parallel_min_rows = 0;
            const std::string cfg = where + " [pushdown " +
                                    std::to_string(pushdown) + ", b" +
                                    std::to_string(batch) + "/t" +
                                    std::to_string(threads) + "]";
            auto res = eval(q, db, o);
            ASSERT_TRUE(res.ok()) << cfg << ": " << res.status().ToString();
            ASSERT_TRUE(ref->SameRows(*res))
                << cfg << "\nreference:\n" << ref->ToString() << "\nplan:\n"
                << res->ToString();
            ASSERT_EQ(ref->attrs(), res->attrs()) << cfg;
            // Stored relations are indexed once per state: a second run
            // probes the indexes the first one built, a run after a
            // commit (one that inserts a row of a scanned relation and
            // removes it again) builds them anew, and so does a run over
            // copies of the relations. All answer alike, row for row.
            auto again = eval(q, db, o);
            ASSERT_TRUE(again.ok())
                << cfg << ": " << again.status().ToString();
            ASSERT_TRUE(res->IdenticalTo(*again)) << cfg << ": second run";
            Database::Txn txn = db.Begin();
            const char* touched = i % 2 == 0 ? "S" : "R";
            const Tuple row{Value::Int(7), Value::Null(9)};
            ASSERT_TRUE(txn.Insert(touched, row).ok());
            ASSERT_TRUE(txn.Remove(touched, row).ok());
            ASSERT_TRUE(db.Commit(std::move(txn)).ok());
            auto committed = eval(q, db, o);
            ASSERT_TRUE(committed.ok())
                << cfg << ": " << committed.status().ToString();
            ASSERT_TRUE(res->IdenticalTo(*committed))
                << cfg << ": run after a commit to " << touched;
            auto copied = eval(q, FreshStates(db), o);
            ASSERT_TRUE(copied.ok())
                << cfg << ": " << copied.status().ToString();
            ASSERT_TRUE(res->IdenticalTo(*copied))
                << cfg << ": copied relations";
            if (!serial) {
              serial = std::move(*res);
            } else {
              ASSERT_TRUE(serial->IdenticalTo(*res))
                  << cfg << ": row order differs from 1 thread";
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The Fig. 2(b) corpus: Q+ and Q? of the RandomQueryGen queries that
// PrepareForTranslation accepts, evaluated by EvalSet and EvalBag against
// the reference walk. Their ⋉/▷ on θ? compile to null-aware keys and
// those on θ* to plain ones. The Theorem 4.7 sandwich holds for an empty
// Q+, so it cannot see a probe that drops rows it should keep; this test
// can.
TEST(FuzzDiffTest, Fig2bTranslationsAgreeWithReferenceWalk) {
  const uint64_t seed = EnvOr("INCDB_FUZZ_SEED", 20260730);
  const uint64_t cases = EnvOr("INCDB_FUZZ_CASES", 500);
  using Eval = StatusOr<Relation> (*)(const AlgPtr&, const Database&,
                                      const EvalOptions&);
  const std::pair<EvalMode, Eval> modes[] = {{EvalMode::kSetNaive, &EvalSet},
                                             {EvalMode::kBagNaive, &EvalBag}};
  // The default plan; the same plan at an awkward window on the pool,
  // which must return identical rows in identical order; every pass off.
  EvalOptions windowed;
  windowed.batch_size = 3;
  windowed.num_threads = std::max<uint64_t>(2, EnvOr("INCDB_FUZZ_THREADS", 0));
  windowed.parallel_min_rows = 0;
  EvalOptions bare;
  bare.enable_hash_join = false;
  bare.enable_or_expansion = false;
  bare.enable_projection_fusion = false;
  bare.enable_unify_index = false;
  bare.enable_selection_pushdown = false;
  std::mt19937_64 rng(seed ^ 0x66696732627471ull);
  RandomQueryGen gen(rng);
  uint64_t translated = 0;
  for (uint64_t i = 0; i < cases; ++i) {
    const size_t tuples = 3 + i % 4;
    Database db = (i % 2 == 0) ? RandomDatabase(rng, tuples)
                               : RandomBagDatabase(rng, tuples);
    AlgPtr q = gen.Gen(2 + static_cast<int>(i % 3));
    if (!PrepareForTranslation(q, db).ok()) continue;
    ++translated;
    for (bool plus : {true, false}) {
      auto t = plus ? TranslatePlus(q, db) : TranslateMaybe(q, db);
      ASSERT_TRUE(t.ok()) << "case " << i << ": " << t.status().ToString();
      for (const auto& [mode, eval] : modes) {
        const std::string where =
            "case " + std::to_string(i) + (plus ? " Q+" : " Q?") +
            " (mode " + std::to_string(static_cast<int>(mode)) + ") of " +
            q->ToString() + " = " + (*t)->ToString();
        auto ref = RefEval(*t, db, mode);
        ASSERT_TRUE(ref.ok()) << where << ": " << ref.status().ToString();
        auto dflt = eval(*t, db, EvalOptions{});
        auto win = eval(*t, db, windowed);
        auto none = eval(*t, db, bare);
        ASSERT_TRUE(dflt.ok() && win.ok() && none.ok()) << where;
        ASSERT_TRUE(ref->SameRows(*dflt))
            << where << "\nreference:\n" << ref->ToString() << "\nplan:\n"
            << dflt->ToString();
        ASSERT_EQ(ref->attrs(), dflt->attrs()) << where;
        ASSERT_TRUE(dflt->IdenticalTo(*win)) << where << ": b3/t"
                                             << windowed.num_threads;
        ASSERT_TRUE(ref->SameRows(*none)) << where << ": every pass off";
      }
    }
  }
  EXPECT_GT(translated, cases / 4) << "too few queries were translatable";
}

// The result cache must be invisible: on the same corpus, a session with
// the cache on — executed twice, so the second run is served from the
// cache — returns bit-identical relations to a session with the cache
// off. A divergence means a key is too coarse (two different executions
// aliased) or a cached relation was corrupted in flight.
TEST(FuzzDiffTest, ResultCacheToggleIsBitIdentical) {
  const uint64_t seed = EnvOr("INCDB_FUZZ_SEED", 20260730);
  const uint64_t cases = EnvOr("INCDB_FUZZ_CASES", 500);
  for (EvalMode mode :
       {EvalMode::kSetNaive, EvalMode::kBagNaive, EvalMode::kSetSql}) {
    std::mt19937_64 rng(seed ^ (static_cast<uint64_t>(mode) << 32));
    RandomQueryGen gen(rng);
    uint64_t hits = 0;
    for (uint64_t i = 0; i < cases; ++i) {
      const size_t tuples = 3 + i % 4;
      Database db = (i % 2 == 0) ? RandomDatabase(rng, tuples)
                                 : RandomBagDatabase(rng, tuples);
      AlgPtr q = gen.Gen(2 + static_cast<int>(i % 3));

      EvalOptions on;
      on.use_result_cache = true;
      EvalOptions off;
      off.use_result_cache = false;
      Session cached(db, on);
      Session plain(std::move(db), off);

      auto pq_on = cached.Prepare(q, mode);
      auto pq_off = plain.Prepare(q, mode);
      ASSERT_TRUE(pq_on.ok()) << "case " << i << ": "
                              << pq_on.status().ToString();
      ASSERT_TRUE(pq_off.ok());

      auto cold = pq_on->Execute();
      auto warm = pq_on->Execute();  // same data + bindings: cache path
      auto ref = pq_off->Execute();
      ASSERT_TRUE(cold.ok() && warm.ok() && ref.ok()) << "case " << i;
      for (const Relation* r : {&*cold, &*warm}) {
        ASSERT_TRUE(ref->SameRows(*r))
            << "case " << i << " (mode " << static_cast<int>(mode)
            << ") cache-on diverges for " << q->ToString()
            << "\ncache off:\n" << ref->ToString() << "\ncache on:\n"
            << r->ToString();
        ASSERT_EQ(ref->attrs(), r->attrs()) << "case " << i;
      }
      hits += cached.stats().result_cache.hits;
    }
    EXPECT_GT(hits, 0u) << "the cache-on sessions never actually hit";
  }
}

// Incremental result maintenance must be invisible: interleave random
// row-level Mutate batches with prepared executions and cross-check the
// (possibly delta-maintained) cached result against a maintenance-free
// cold recompute after every commit. Crossed over the window sizes
// {3, 1024} × thread counts {1, 8} — the delta propagator runs the
// executor's kernels at the plan's window size, so a multi-window sweep
// and a single-window one both run on both paths. Set
// modes also exercise the deletion → invalidation fallback (removals are
// not insert-only maintainable there); bag mode the exact signed-delta
// path.
TEST(FuzzDiffTest, MaintainedResultsMatchColdRecompute) {
  const uint64_t seed = EnvOr("INCDB_FUZZ_SEED", 20260730);
  const uint64_t cases = EnvOr("INCDB_FUZZ_CASES", 500);
  struct Cfg {
    size_t batch;
    size_t threads;
  };
  constexpr Cfg kCfgs[] = {{3, 1}, {3, 8}, {1024, 1}, {1024, 8}};
  constexpr const char* kRels[] = {"R", "S", "T"};
  for (EvalMode mode :
       {EvalMode::kSetNaive, EvalMode::kBagNaive, EvalMode::kSetSql}) {
    std::mt19937_64 rng(seed ^ (static_cast<uint64_t>(mode) << 32) ^
                        0x9e3779b97f4a7c15ull);
    RandomQueryGen gen(rng);
    uint64_t maintained = 0;
    for (uint64_t i = 0; i < cases; ++i) {
      const Cfg cfg = kCfgs[i % 4];
      const size_t tuples = 3 + i % 4;
      Database db = (i % 2 == 0) ? RandomDatabase(rng, tuples)
                                 : RandomBagDatabase(rng, tuples);
      AlgPtr q = gen.Gen(2 + static_cast<int>(i % 3));

      EvalOptions on;
      on.batch_size = cfg.batch;
      on.num_threads = cfg.threads;
      on.parallel_min_rows = 0;
      EvalOptions off = on;
      off.use_result_cache = false;
      Session maint(db, on);
      Session plain(std::move(db), off);
      auto pq_m = maint.Prepare(q, mode);
      auto pq_p = plain.Prepare(q, mode);
      ASSERT_TRUE(pq_m.ok()) << "case " << i << ": "
                             << pq_m.status().ToString();
      ASSERT_TRUE(pq_p.ok());
      ASSERT_TRUE(pq_m->Execute().ok()) << "case " << i;  // prime the cache

      for (int round = 0; round < 3; ++round) {
        // One random row-level batch, staged identically on both sessions
        // (a Remove of an already-gone tuple is skipped on both sides —
        // Txn::Remove validates before staging, so a failed op leaves the
        // transaction untouched).
        std::vector<std::tuple<std::string, Tuple, bool>> ops;
        const size_t n_ops = 1 + rng() % 3;
        for (size_t k = 0; k < n_ops; ++k) {
          const std::string rel = kRels[rng() % 3];
          const size_t arity = rel == "T" ? 1 : 2;
          if (rng() % 2 == 0) {
            Tuple t;
            for (size_t a = 0; a < arity; ++a) {
              const uint64_t v = rng() % 5;
              t.Append(v < 3 ? Value::Int(static_cast<int64_t>(v))
                             : Value::Null(v - 3));
            }
            ops.emplace_back(rel, std::move(t), true);
          } else {
            const Relation* cur = maint.db().Find(rel);
            if (cur == nullptr || cur->Empty()) continue;
            const auto& rows = cur->rows();
            ops.emplace_back(rel, rows[rng() % rows.size()].first, false);
          }
        }
        auto apply = [&ops](Database::Txn& txn) {
          for (const auto& [rel, t, ins] : ops) {
            if (ins) {
              INCDB_RETURN_IF_ERROR(txn.Insert(rel, t));
            } else {
              txn.Remove(rel, t).ok();  // best-effort: skip absent tuples
            }
          }
          return Status::OK();
        };
        ASSERT_TRUE(maint.Mutate(apply).ok()) << "case " << i;
        ASSERT_TRUE(plain.Mutate(apply).ok()) << "case " << i;
        auto got = pq_m->Execute();
        auto want = pq_p->Execute();
        ASSERT_TRUE(got.ok() && want.ok())
            << "case " << i << " round " << round << ": "
            << got.status().ToString() << " / " << want.status().ToString();
        ASSERT_TRUE(want->SameRows(*got))
            << "case " << i << " round " << round << " (mode "
            << static_cast<int>(mode) << ", b" << cfg.batch << "/t"
            << cfg.threads << ") maintained path diverges for "
            << q->ToString() << "\ncold:\n"
            << want->ToString() << "\nmaintained:\n"
            << got->ToString();
        ASSERT_EQ(want->attrs(), got->attrs()) << "case " << i;
        // Warm re-execute: serve the maintained (or recomputed) entry.
        auto warm = pq_m->Execute();
        ASSERT_TRUE(warm.ok()) << "case " << i;
        ASSERT_TRUE(want->SameRows(*warm))
            << "case " << i << " round " << round << " warm hit diverges";
      }
      maintained += maint.stats().result_cache.maintained;
    }
    EXPECT_GT(maintained, 0u)
        << "maintenance never actually ran (mode " << static_cast<int>(mode)
        << ")";
  }
}

}  // namespace
}  // namespace incdb
