// Experiment E4 (paper §4.2, the SIGMOD'19 study [27]): with respect to
// the ground truth (exact certain answers), the Q+ translation has perfect
// precision but its recall degrades quickly as the amount of
// incompleteness grows; evaluation without guarantees (plain SQL)
// additionally loses precision (invents non-certain answers). Ground truth
// is exact cert⊥ by brute-force valuation enumeration, whose cost grows as
// (values)^(nulls), so the instances are kept small.
//
// Query design note: a NOT-IN query against a nulled set has *empty*
// certain answers (a bare null can be anything), which makes recall
// trivially perfect. The workload therefore includes the query shapes
// where approximation genuinely loses recall:
//  * a tautological selection σ(b=0 ∨ b≠0)(S) — everything is certain,
//    but Q+'s θ*-guard drops every null row;
//  * a double negation R − (S − T) — the eager ⋉⇑ rule under-approximates;
//  * a NOT EXISTS (antijoin) — where SQL invents non-certain answers.

#include <random>

#include "algebra/builder.h"
#include "approx/approx.h"
#include "bench/bench_util.h"
#include "certain/certain.h"
#include "eval/eval.h"

using namespace incdb;  // NOLINT

namespace {

/// R, S, T unary; `n_nulls` cells of S and T become fresh nulls.
Database MakeDb(size_t n_tuples, size_t n_nulls, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int64_t> val(0, 9);
  uint64_t next_null = 100;
  auto fill = [&](Relation* rel, size_t nulls_here) {
    size_t injected = 0;
    for (size_t i = 0; i < n_tuples; ++i) {
      if (injected < nulls_here) {
        rel->Add({Value::Null(next_null++)});
        ++injected;
      } else {
        rel->Add({Value::Int(val(rng))});
      }
    }
  };
  Database db;
  Relation r({"a"}), s({"b"}), t({"c"});
  fill(&r, 0);  // the positive side stays complete
  fill(&s, n_nulls);
  fill(&t, (n_nulls + 1) / 2);
  db.Put("R", r.ToSet());
  db.Put("S", s.ToSet());
  db.Put("T", t.ToSet());
  return db;
}

std::vector<AlgPtr> Workload() {
  return {
      // Tautological selection: certain for every S row.
      Select(Scan("S"), COr(CEqc("b", Value::Int(0)),
                            CNeqc("b", Value::Int(0)))),
      // Double negation R − (S − T).
      Diff(Scan("R"),
           Rename(Diff(Scan("S"), Rename(Scan("T"), {"b"})), {"a"})),
      // NOT EXISTS: R rows with no equal S partner.
      Antijoin(Scan("R"), Scan("S"), CEq("a", "b")),
  };
}

struct PR {
  double precision = 1.0;
  double recall = 1.0;
};

PR Score(const Relation& reported, const Relation& truth) {
  size_t tp = 0;
  for (const Tuple& t : reported.SortedTuples()) {
    if (truth.Contains(t)) ++tp;
  }
  PR pr;
  pr.precision =
      reported.Empty() ? 1.0 : double(tp) / double(reported.DistinctSize());
  pr.recall = truth.Empty() ? 1.0 : double(tp) / double(truth.DistinctSize());
  return pr;
}

}  // namespace

INCDB_BENCH(precision_recall) {
  bench::Header(
      "E4", "precision/recall of Q+ and SQL vs exact certain answers ([27])",
      "\"the Q+ translation had obviously perfect precision (100%), but "
      "recall degraded quickly with the increase in the amount of "
      "incompleteness\"; approaches without guarantees lose precision.");

  std::printf("%8s %10s | %10s %10s | %10s %10s\n", "nulls", "|cert⊥|",
              "Q+ prec", "Q+ recall", "SQL prec", "SQL recall");
  double recall_at_zero = -1, recall_at_max = -1;
  bool plus_precision_perfect = true;
  bool sql_loses_precision = false;
  for (size_t nulls : {0, 1, 2, 3, 4, 5}) {
    double plus_p = 0, plus_r = 0, sql_p = 0, sql_r = 0, cert_sz = 0;
    int rounds = 0;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      Database db = MakeDb(12, nulls, seed);
      for (const AlgPtr& q : Workload()) {
        auto cert = CertWithNulls(q, db);
        auto plus = EvalPlus(q, db);
        auto sql = EvalSql(q, db);
        if (!cert.ok() || !plus.ok() || !sql.ok()) continue;
        PR pp = Score(*plus, *cert);
        PR sp = Score(*sql, *cert);
        plus_p += pp.precision;
        plus_r += pp.recall;
        sql_p += sp.precision;
        sql_r += sp.recall;
        cert_sz += double(cert->DistinctSize());
        ++rounds;
      }
    }
    if (rounds == 0) continue;
    plus_p /= rounds;
    plus_r /= rounds;
    sql_p /= rounds;
    sql_r /= rounds;
    cert_sz /= rounds;
    std::printf("%8zu %10.1f | %10.3f %10.3f | %10.3f %10.3f\n", nulls,
                cert_sz, plus_p, plus_r, sql_p, sql_r);
    ctx.ReportInfo("precision_recall")
        .Param("nulls", static_cast<int64_t>(nulls))
        .Param("cert_size", cert_sz)
        .Param("plus_precision", plus_p)
        .Param("plus_recall", plus_r)
        .Param("sql_precision", sql_p)
        .Param("sql_recall", sql_r);
    plus_precision_perfect &= plus_p >= 1.0 - 1e-9;
    if (nulls == 0) recall_at_zero = plus_r;
    recall_at_max = plus_r;
    if (nulls >= 1 && sql_p < 1.0 - 1e-9) sql_loses_precision = true;
  }

  bool recall_degrades = recall_at_zero >= 1.0 - 1e-9 &&
                         recall_at_max < recall_at_zero - 0.05;
  bool shape = plus_precision_perfect && recall_degrades && sql_loses_precision;
  bench::Footer(shape,
                "Q+ precision pinned at 100% while its recall decays with "
                "null count; SQL additionally reports non-certain tuples "
                "(precision < 1).");
  ctx.ReportInfo("precision_recall_shape").Param("shape_holds", shape);
  if (!shape) ctx.SetFailed();
}
