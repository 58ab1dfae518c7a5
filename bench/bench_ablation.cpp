// Ablation study (E11, not a paper table): the evaluator fast paths that
// make the Fig. 2(b) rewriting competitive — hash join, OR-expansion of
// the σ?-rule's join disjunctions, projection fusion, the ⋉⇑ null-mask
// index and selection pushdown. Each is disabled in turn on the Q+ of
// W1 and W2; results must not change, only cost. This quantifies the
// paper's remark that the remaining practical obstacle is "the poor way
// in which query optimizers handle disjunctions". The ▷ rule's θ?
// disjunction needs no option: it always runs as a null-aware key.

#include <string>

#include "approx/approx.h"
#include "bench/bench_util.h"
#include "eval/eval.h"
#include "tpch/tpch.h"

using namespace incdb;  // NOLINT

INCDB_BENCH(ablation) {
  bench::Header(
      "E11 (ablation)", "evaluator fast paths behind the Q+ feasibility",
      "not a paper table — quantifies which engine features the [37] "
      "experiment's feasibility depends on (the paper blames optimizer "
      "disjunction handling for the residual slow cases).");

  tpch::GenOptions gopts;
  gopts.scale = 1.0;
  gopts.null_rate = 0.02;
  gopts.seed = 7;
  Database db = tpch::Generate(gopts);

  struct Config {
    const char* name;
    EvalOptions opts;
  };
  EvalOptions base;
  std::vector<Config> configs;
  configs.push_back({"all optimizations", base});
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

  // The two queries whose Q+ exercises every fast path.
  auto workload = tpch::Workload();
  std::vector<tpch::BenchQuery> queries = {workload[0], workload[1]};

  bool results_stable = true;
  std::printf("%-22s", "config");
  for (const auto& q : queries) std::printf(" %16s", q.name.substr(0, 15).c_str());
  std::printf("\n");

  std::vector<Relation> reference;
  for (const Config& cfg : configs) {
    std::printf("%-22s", cfg.name);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      auto plus_q = TranslatePlus(queries[qi].algebra, db);
      if (!plus_q.ok()) {
        std::printf(" %16s", "XLATE-ERR");
        results_stable = false;
        continue;
      }
      Relation result;
      bool ok = true;
      // Single run per config: the point is the relative cost ordering of
      // the ablations, and disabled-fast-path configs are slow.
      double ms = ctx.TimeMs(
          [&] {
            auto r = EvalSet(*plus_q, db, cfg.opts);
            ok = r.ok();
            if (ok) result = *r;
          },
          1);
      if (!ok) {
        std::printf(" %16s", "EVAL-ERR");
        results_stable = false;
        continue;
      }
      if (reference.size() <= qi) {
        reference.push_back(result);
      } else if (!reference[qi].SameRows(result)) {
        results_stable = false;
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1f ms", ms);
      std::printf(" %16s", buf);
      ctx.Report("ablation", ms)
          .Timing(1)
          .Param("config", cfg.name)
          .Param("query", queries[qi].name);
    }
    std::printf("\n");
  }

  std::printf("\nresults identical across configs: %s\n",
              results_stable ? "yes" : "NO — ABLATION CHANGED ANSWERS");
  bench::Footer(results_stable,
                "every fast path is semantics-preserving; W1/W2's Q+ run "
                "their ▷ on θ? as one null-aware antijoin whatever the "
                "options, so no toggle moves them (OR-expansion serves join "
                "disjunctions only, as in W4's Q?).");
  ctx.ReportInfo("ablation_shape").Param("results_stable", results_stable);
  if (!results_stable) ctx.SetFailed();
}
