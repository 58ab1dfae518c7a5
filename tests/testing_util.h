#ifndef INCDB_TESTS_TESTING_UTIL_H_
#define INCDB_TESTS_TESTING_UTIL_H_

/// Shared helpers for property-style tests: the paper-running example
/// (Figure 1), seeded random databases, the enumerated query zoo, the
/// seeded structurally-random query generator behind the differential
/// fuzzer (tests/fuzz_diff_test.cpp), and a reference condition
/// interpreter to hold the engine's columnar program against.

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "algebra/builder.h"
#include "core/database.h"
#include "eval/batch.h"
#include "logic/kleene.h"

namespace incdb {
namespace testing_util {

/// Integral environment knob: unset or empty → `fallback`. Shared by the
/// differential fuzzer's INCDB_FUZZ_* knobs (see tests/fuzz_diff_test.cpp
/// and BUILDING.md "Differential fuzzer").
inline uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::strtoull(v, nullptr, 10)
                                      : fallback;
}

/// The reference reading of θ on tuple `t` of schema `attrs` under `mode`:
/// a walk of the Condition AST through the atom truth values CondEqTV /
/// CondOrderTV and Kleene's connectives, with no compile step. Every
/// attribute θ names must be in `attrs`.
inline TV3 RefCondTruth(const CondPtr& c, const std::vector<std::string>& attrs,
                        const Tuple& t, CondMode mode) {
  auto lhs = [&]() -> const Value& { return t[IndexOf(attrs, c->lhs)]; };
  auto rhs = [&]() -> const Value& { return t[IndexOf(attrs, c->rhs)]; };
  switch (c->kind) {
    case CondKind::kTrue:
      return TV3::kT;
    case CondKind::kFalse:
      return TV3::kF;
    case CondKind::kAnd:
      return Kleene::And(RefCondTruth(c->left, attrs, t, mode),
                         RefCondTruth(c->right, attrs, t, mode));
    case CondKind::kOr:
      return Kleene::Or(RefCondTruth(c->left, attrs, t, mode),
                        RefCondTruth(c->right, attrs, t, mode));
    case CondKind::kEqAttrAttr:
      return CondEqTV(lhs(), rhs(), mode);
    case CondKind::kNeqAttrAttr:
      return Kleene::Not(CondEqTV(lhs(), rhs(), mode));
    case CondKind::kEqAttrConst:
      return CondEqTV(lhs(), c->constant, mode);
    case CondKind::kNeqAttrConst:
      return Kleene::Not(CondEqTV(lhs(), c->constant, mode));
    case CondKind::kIsConst:
      return FromBool(lhs().is_const());
    case CondKind::kIsNull:
      return FromBool(lhs().is_null());
    case CondKind::kLtAttrAttr:
      return CondOrderTV(lhs(), rhs(), /*strict=*/true, mode);
    case CondKind::kLeAttrAttr:
      return CondOrderTV(lhs(), rhs(), /*strict=*/false, mode);
    case CondKind::kLtAttrConst:
      return CondOrderTV(lhs(), c->constant, /*strict=*/true, mode);
    case CondKind::kLeAttrConst:
      return CondOrderTV(lhs(), c->constant, /*strict=*/false, mode);
    case CondKind::kGtAttrConst:
      return CondOrderTV(c->constant, lhs(), /*strict=*/true, mode);
    case CondKind::kGeAttrConst:
      return CondOrderTV(c->constant, lhs(), /*strict=*/false, mode);
  }
  return TV3::kU;
}

/// The engine's reading of θ on `t`: its columnar program
/// (BatchPredicate::EvalTruth) over the one-row batch that holds `t`.
/// NotFound when θ names an attribute `attrs` lacks.
inline StatusOr<TV3> ProgramTruth(const CondPtr& c,
                                  const std::vector<std::string>& attrs,
                                  const Tuple& t, CondMode mode) {
  auto prog = BatchPredicate::Make(c, attrs, mode);
  if (!prog.ok()) return prog.status();
  Batch batch;
  batch.Reset(attrs.size(), 1);
  for (size_t p : prog->referenced()) batch.cols[p] = BatchColumn{&t[p], 0};
  BatchPredicate::Scratch scratch;
  uint8_t out = 0;
  prog->EvalTruth(batch, &scratch, &out);
  return static_cast<TV3>(out);
}

/// The Orders / Payments / Customers database of paper Figure 1.
/// With `with_null`, the oid of Payments' second tuple is ⊥1 (the paper's
/// single-NULL modification).
inline Database FigureOne(bool with_null) {
  Database db;
  Relation orders({"oid", "title", "price"});
  orders.Add({Value::String("o1"), Value::String("Big Data"), Value::Int(30)});
  orders.Add({Value::String("o2"), Value::String("SQL"), Value::Int(35)});
  orders.Add({Value::String("o3"), Value::String("Logic"), Value::Int(50)});
  Relation payments({"cid", "oid"});
  payments.Add({Value::String("c1"), Value::String("o1")});
  if (with_null) {
    payments.Add({Value::String("c2"), Value::Null(1)});
  } else {
    payments.Add({Value::String("c2"), Value::String("o2")});
  }
  Relation customers({"cid", "name"});
  customers.Add({Value::String("c1"), Value::String("John")});
  customers.Add({Value::String("c2"), Value::String("Mary")});
  db.Put("Orders", std::move(orders));
  db.Put("Payments", std::move(payments));
  db.Put("Customers", std::move(customers));
  return db;
}

/// Random database over two binary relations R, S and a unary T, with
/// values from a small constant pool plus repeated marked nulls — small
/// enough for brute-force certain answers.
inline Database RandomDatabase(std::mt19937_64& rng, size_t tuples_per_rel = 4,
                               int n_constants = 3, int n_nulls = 2) {
  auto value = [&]() -> Value {
    std::uniform_int_distribution<int> pick(0, n_constants + n_nulls - 1);
    int v = pick(rng);
    if (v < n_constants) return Value::Int(v);
    return Value::Null(static_cast<uint64_t>(v - n_constants));
  };
  Database db;
  for (const char* name : {"R", "S"}) {
    Relation rel({std::string(name) + "_a", std::string(name) + "_b"});
    for (size_t i = 0; i < tuples_per_rel; ++i) {
      rel.Add({value(), value()});
    }
    db.Put(name, rel.ToSet());
  }
  Relation t({"T_a"});
  for (size_t i = 0; i < tuples_per_rel; ++i) t.Add({value()});
  db.Put("T", t.ToSet());
  return db;
}

/// A fixed family of interesting query shapes over the RandomDatabase
/// schema (random structural generation is hard to keep schema-correct; an
/// enumerated zoo combined with random databases gives the same
/// property-test coverage deterministically). The positive shapes are
/// core grammar; the negative ones add ⋉, ▷, IN and NOT IN, which the
/// Fig. 2(b) translation has direct rules for.
inline std::vector<AlgPtr> QueryZoo(bool include_negative = true) {
  std::vector<AlgPtr> zoo;
  AlgPtr r = Scan("R");
  AlgPtr s = Scan("S");
  AlgPtr t = Scan("T");

  // Positive / UCQ shapes.
  zoo.push_back(r);
  zoo.push_back(Project(r, {"R_a"}));
  zoo.push_back(Select(r, CEqc("R_a", Value::Int(0))));
  zoo.push_back(Select(r, CEq("R_a", "R_b")));
  zoo.push_back(Union(Project(r, {"R_a"}), Project(s, {"S_a"})));
  zoo.push_back(Project(
      Select(Product(r, s), CEq("R_b", "S_a")), {"R_a", "S_b"}));
  zoo.push_back(Union(r, Rename(s, {"R_a", "R_b"})));
  zoo.push_back(Project(Select(Product(Project(r, {"R_a"}),
                                       Rename(t, {"T_x"})),
                               CEq("R_a", "T_x")),
                        {"R_a"}));

  if (!include_negative) return zoo;

  // Negative / full-RA shapes.
  zoo.push_back(Diff(Project(r, {"R_a"}), Rename(t, {"R_a"})));
  zoo.push_back(Diff(r, s));
  zoo.push_back(Select(r, CNeqc("R_a", Value::Int(1))));
  zoo.push_back(Select(r, CNeq("R_a", "R_b")));
  zoo.push_back(Diff(Project(r, {"R_a"}),
                     Project(Select(s, CNeqc("S_b", Value::Int(0))),
                             {"S_a"})));
  zoo.push_back(
      Diff(Rename(t, {"x"}),
           Diff(Project(r, {"R_a"}), Project(s, {"S_a"}))));  // R−(S−T) shape
  zoo.push_back(Intersect(Project(r, {"R_a"}), Project(s, {"S_a"})));
  zoo.push_back(Select(Diff(r, s), COr(CEqc("R_a", Value::Int(0)),
                                       CNeqc("R_b", Value::Int(2)))));

  // Semijoin / antijoin shapes: a one-column key, ...
  AlgPtr ra = Project(r, {"R_a"});
  AlgPtr tx = Rename(t, {"T_x"});
  zoo.push_back(Semijoin(ra, tx, CEq("R_a", "T_x")));
  zoo.push_back(Antijoin(ra, tx, CEq("R_a", "T_x")));
  zoo.push_back(InPredicate(ra, t, {"R_a"}, {"T_a"}, CTrue()));
  zoo.push_back(NotInPredicate(ra, t, {"R_a"}, {"T_a"}, CTrue()));
  // ... a correlated key with a right-only conjunct, ...
  AlgPtr sxy = Rename(s, {"S_x", "S_y"});
  zoo.push_back(Antijoin(
      r, sxy, CAnd(CEq("R_b", "S_x"), CNeqc("S_y", Value::Int(0)))));
  zoo.push_back(
      InPredicate(r, sxy, {"R_a"}, {"S_x"}, CEq("R_b", "S_y")));
  // ... and a NOT IN nested in a NOT IN, as in TPC-H-lite W8.
  zoo.push_back(NotInPredicate(
      ra,
      Project(Select(NotInPredicate(sxy, t, {"S_x"}, {"T_a"}, CTrue()),
                     CNeqc("S_y", Value::Int(0))),
              {"S_x"}),
      {"R_a"}, {"S_x"}, CTrue()));
  return zoo;
}

/// Like RandomDatabase but with bag multiplicities (1..3 occurrences per
/// generated tuple): the differential fuzzer needs non-set base relations
/// to exercise the set-collapsing scans and bag arithmetic.
inline Database RandomBagDatabase(std::mt19937_64& rng,
                                  size_t tuples_per_rel = 4,
                                  int n_constants = 3, int n_nulls = 2) {
  auto value = [&]() -> Value {
    std::uniform_int_distribution<int> pick(0, n_constants + n_nulls - 1);
    int v = pick(rng);
    if (v < n_constants) return Value::Int(v);
    return Value::Null(static_cast<uint64_t>(v - n_constants));
  };
  auto count = [&]() -> uint64_t { return 1 + rng() % 3; };
  Database db;
  for (const char* name : {"R", "S"}) {
    Relation rel({std::string(name) + "_a", std::string(name) + "_b"});
    for (size_t i = 0; i < tuples_per_rel; ++i) {
      rel.Add({value(), value()}, count());
    }
    db.Put(name, std::move(rel));
  }
  Relation t({"T_a"});
  for (size_t i = 0; i < tuples_per_rel; ++i) t.Add({value()}, count());
  db.Put("T", std::move(t));
  return db;
}

/// The relations of `db` copied into new relation states: no query has
/// run over them, so none has a key index built yet (core/key_index.h).
inline Database FreshStates(const Database& db) {
  Database out;
  for (const auto& [name, rel] : db.relations()) out.Put(name, Relation(rel));
  return out;
}

/// `c` with every Int constant i of a comparison replaced by the
/// placeholder ?i, so binding ?i to Int(i) gives back `c`.
inline CondPtr ParameteriseCond(const CondPtr& c) {
  auto out = std::make_shared<Condition>(*c);
  switch (c->kind) {
    case CondKind::kAnd:
    case CondKind::kOr:
      out->left = ParameteriseCond(c->left);
      out->right = ParameteriseCond(c->right);
      return out;
    case CondKind::kEqAttrConst:
    case CondKind::kNeqAttrConst:
    case CondKind::kLtAttrConst:
    case CondKind::kLeAttrConst:
    case CondKind::kGtAttrConst:
    case CondKind::kGeAttrConst:
      if (c->constant.kind() != ValueKind::kInt) return c;
      out->constant =
          Value::Param(static_cast<uint32_t>(c->constant.as_int()));
      return out;
    default:
      return c;
  }
}

/// The template of `q` whose bindings {?i ↦ Int(i)} give back `q`: every
/// condition goes through ParameteriseCond.
inline AlgPtr Parameterise(const AlgPtr& q) {
  auto mapped = MapChildren(
      q, [](const AlgPtr& c) -> StatusOr<AlgPtr> { return Parameterise(c); });
  if (!q->cond) return *mapped;
  auto out = std::make_shared<Algebra>(**mapped);
  out->cond = ParameteriseCond(q->cond);
  return out;
}

/// The bindings Parameterise's template needs: ?i ↦ Int(i).
inline std::vector<Value> IdentityBindings(const AlgPtr& tmpl) {
  std::vector<Value> params;
  for (size_t p = 0; p < ParamCount(tmpl); ++p) {
    params.push_back(Value::Int(static_cast<int64_t>(p)));
  }
  return params;
}

/// \brief Seeded random algebra queries over the RandomDatabase schema
/// (R(R_a,R_b), S(S_a,S_b), T(T_a)), schema-correct by construction.
///
/// Generated queries cover the core grammar plus every sugar operator the
/// three evaluators execute natively (join, semijoin/antijoin, [NOT] IN,
/// DISTINCT, ⋉⇑); ÷ and Dom are excluded (÷ is unsupported under EvalSql,
/// Dom blows up the reference walk). Arity agreement and ×-disjointness
/// are maintained structurally: same-arity operators narrow the wider side
/// with a projection, product-like operators rename their right input to
/// fresh attribute names. An estimated-output-size ledger steers the
/// generator away from product towers, keeping the quadratic reference
/// evaluation of every generated query cheap.
class RandomQueryGen {
 public:
  explicit RandomQueryGen(std::mt19937_64& rng, size_t leaf_rows = 4,
                          size_t max_est_rows = 800)
      : rng_(&rng), leaf_rows_(leaf_rows), cap_(max_est_rows) {}

  AlgPtr Gen(int depth) { return GenNode(depth).q; }

 private:
  struct Sub {
    AlgPtr q;
    std::vector<std::string> attrs;
    size_t est;  ///< Upper estimate of the output row count.
  };

  size_t Pick(size_t n) { return static_cast<size_t>((*rng_)() % n); }

  Value RandConst() { return Value::Int(static_cast<int64_t>(Pick(3))); }

  std::string FreshAttr() { return "f" + std::to_string(fresh_++); }

  CondPtr RandAtom(const std::vector<std::string>& attrs) {
    const std::string& a = attrs[Pick(attrs.size())];
    const std::string& b = attrs[Pick(attrs.size())];
    switch (Pick(8)) {
      case 0:
        return CEq(a, b);
      case 1:
        return CNeq(a, b);
      case 2:
        return CEqc(a, RandConst());
      case 3:
        return CNeqc(a, RandConst());
      case 4:
        return CIsConst(a);
      case 5:
        return CIsNull(a);
      case 6:
        return CLtc(a, RandConst());
      default:
        return CGec(a, RandConst());
    }
  }

  CondPtr RandCond(const std::vector<std::string>& attrs, int depth) {
    if (depth <= 0 || Pick(2) == 0) return RandAtom(attrs);
    CondPtr l = RandCond(attrs, depth - 1);
    CondPtr r = RandCond(attrs, depth - 1);
    return Pick(2) != 0 ? CAnd(std::move(l), std::move(r))
                        : COr(std::move(l), std::move(r));
  }

  Sub Leaf() {
    switch (Pick(3)) {
      case 0:
        return {Scan("R"), {"R_a", "R_b"}, leaf_rows_};
      case 1:
        return {Scan("S"), {"S_a", "S_b"}, leaf_rows_};
      default:
        return {Scan("T"), {"T_a"}, leaf_rows_};
    }
  }

  /// Renames every attribute to fresh names (×-disjointness).
  Sub Freshen(Sub s) {
    std::vector<std::string> names;
    names.reserve(s.attrs.size());
    for (size_t i = 0; i < s.attrs.size(); ++i) names.push_back(FreshAttr());
    return {Rename(std::move(s.q), names), names, s.est};
  }

  /// Projects down to the first `k` attributes (arity agreement).
  Sub Narrow(Sub s, size_t k) {
    if (s.attrs.size() <= k) return s;
    std::vector<std::string> keep(s.attrs.begin(),
                                  s.attrs.begin() + static_cast<long>(k));
    return {Project(std::move(s.q), keep), keep, s.est};
  }

  Sub GenNode(int depth) {
    if (depth <= 0) return Leaf();
    switch (Pick(12)) {
      case 0: {  // σ
        Sub in = GenNode(depth - 1);
        CondPtr c = RandCond(in.attrs, 1);
        return {Select(in.q, std::move(c)), in.attrs, in.est};
      }
      case 1: {  // π over a kept-order subset
        Sub in = GenNode(depth - 1);
        std::vector<std::string> keep;
        for (const std::string& a : in.attrs) {
          if (Pick(2) != 0) keep.push_back(a);
        }
        if (keep.empty()) keep.push_back(in.attrs[Pick(in.attrs.size())]);
        return {Project(in.q, keep), keep, in.est};
      }
      case 2:  // ρ
        return Freshen(GenNode(depth - 1));
      case 3: {  // DISTINCT
        Sub in = GenNode(depth - 1);
        return {Distinct(in.q), in.attrs, in.est};
      }
      case 4:
      case 5: {  // same-arity binaries: ∪ − ∩ ⋉⇑
        Sub l = GenNode(depth - 1);
        Sub r = GenNode(depth - 1);
        size_t k = std::min(l.attrs.size(), r.attrs.size());
        l = Narrow(std::move(l), k);
        r = Narrow(std::move(r), k);
        switch (Pick(4)) {
          case 0:
            return {Union(l.q, r.q), l.attrs, l.est + r.est};
          case 1:
            return {Diff(l.q, r.q), l.attrs, l.est};
          case 2:
            return {Intersect(l.q, r.q), l.attrs, l.est};
          default:
            return {AntijoinUnify(l.q, r.q), l.attrs, l.est};
        }
      }
      case 6:
      case 7: {  // × / ⋈θ
        Sub l = GenNode(depth - 1);
        Sub r = Freshen(GenNode(depth - 1));
        if (l.est * r.est > cap_) {  // keep the reference walk bounded
          return {Select(l.q, RandCond(l.attrs, 0)), l.attrs, l.est};
        }
        std::vector<std::string> joint = l.attrs;
        joint.insert(joint.end(), r.attrs.begin(), r.attrs.end());
        size_t est = l.est * r.est;
        if (Pick(2) != 0) return {Product(l.q, r.q), joint, est};
        return {Join(l.q, r.q, RandCond(joint, 1)), joint, est};
      }
      case 8: {  // ⋉θ / ⊳θ
        Sub l = GenNode(depth - 1);
        Sub r = Freshen(GenNode(depth - 1));
        std::vector<std::string> joint = l.attrs;
        joint.insert(joint.end(), r.attrs.begin(), r.attrs.end());
        CondPtr c = RandCond(joint, 1);
        return {Pick(2) != 0 ? Semijoin(l.q, r.q, std::move(c))
                             : Antijoin(l.q, r.q, std::move(c)),
                l.attrs, l.est};
      }
      case 9:
      case 10: {  // x̄ [NOT] IN (r WHERE θ), sometimes correlated
        Sub l = GenNode(depth - 1);
        Sub r = Freshen(GenNode(depth - 1));
        size_t k = 1 + Pick(std::min(l.attrs.size(), r.attrs.size()));
        std::vector<std::string> lcols(l.attrs.begin(),
                                       l.attrs.begin() + static_cast<long>(k));
        std::vector<std::string> rcols(r.attrs.begin(),
                                       r.attrs.begin() + static_cast<long>(k));
        CondPtr c = CTrue();
        if (Pick(2) != 0) {
          std::vector<std::string> joint = l.attrs;
          joint.insert(joint.end(), r.attrs.begin(), r.attrs.end());
          c = RandCond(joint, 0);
        }
        return {Pick(2) != 0
                    ? InPredicate(l.q, r.q, lcols, rcols, std::move(c))
                    : NotInPredicate(l.q, r.q, lcols, rcols, std::move(c)),
                l.attrs, l.est};
      }
      default:  // spend the depth without a new operator
        return GenNode(depth - 1);
    }
  }

  std::mt19937_64* rng_;
  size_t leaf_rows_;
  size_t cap_;
  int fresh_ = 0;
};

}  // namespace testing_util
}  // namespace incdb

#endif  // INCDB_TESTS_TESTING_UTIL_H_
