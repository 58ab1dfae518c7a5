// perfbench: the repository's end-to-end workload benchmark.
//
//   perfbench --workload analytic|certain|oltp --seed N --seconds S
//             --trace 0|1 [--max-ops N] [--spans-out PATH]
//
// --trace 0 draws the workload's round (a fixed number of requests) from
// the seed and replays it, each time on a fresh set-up, through the Session
// facade in a closed loop of one client, until the replays have taken S
// seconds of op time; it prints the end-to-end metrics over each request's
// fastest replay and the median set-up time.
// --trace 1 runs the same request stream untraced for S/2 seconds, then
// replays exactly those operations on a fresh set-up through the traced
// layer path, checks every result against the untraced one, and prints the
// per-layer metrics and a share-of-op-time table. --max-ops fixes the
// operation count instead (short mode, used by the self-test: a round of
// that many requests, replayed kMinRounds times).
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every output check passed, 1 when one failed, 2 for
// bad arguments or a failed set-up.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <unordered_map>
#include <memory>
#include <string>
#include <vector>

#include "algebra/algebra.h"
#include "engine.h"
#include "eval/eval.h"
#include "eval/plan_cache.h"
#include "sql/translate.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using incdb::Database;
using incdb::EvalMode;
using incdb::Relation;
using incdb::StatusOr;
using incdb::Value;

// --- Checksums ----------------------------------------------------------------

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Content hash of a value: strings by their text, not their intern id, so
/// checksums compare across processes.
uint64_t ValueHash(const Value& v) {
  const auto kind = static_cast<uint64_t>(v.kind());
  switch (v.kind()) {
    case incdb::ValueKind::kString:
      return Mix(std::hash<std::string>()(v.as_string()) ^ kind);
    case incdb::ValueKind::kNull:
      return Mix(v.null_id() ^ (kind << 56));
    case incdb::ValueKind::kDouble: {
      const double d = v.as_double();
      uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof(bits));
      return Mix(bits ^ (kind << 56));
    }
    default:
      return Mix(static_cast<uint64_t>(v.as_int()) ^ (kind << 56));
  }
}

/// Order-insensitive checksum of a relation's schema, rows and counts.
uint64_t ResultChecksum(const Relation& r) {
  uint64_t h = Mix(r.arity());
  for (const std::string& a : r.attrs()) h = Mix(h ^ std::hash<std::string>()(a));
  uint64_t rows = 0;
  for (const auto& [t, c] : r.rows()) {
    uint64_t rh = 0;
    for (size_t i = 0; i < t.arity(); ++i) rh = Mix(rh ^ ValueHash(t[i]));
    rows += Mix(rh ^ Mix(c));
  }
  return Mix(h ^ rows ^ Mix(r.DistinctSize()));
}

uint64_t DataChecksum(const Database& db) {
  uint64_t h = 0;
  for (const auto& [name, rel] : db.relations()) {
    h = Mix(h ^ std::hash<std::string>()(name)) + ResultChecksum(rel);
  }
  return h;
}

/// Run checksum: folds the first kChecksumOps per-op checksums, so it is
/// comparable across runs of different lengths.
constexpr size_t kChecksumOps = 64;

uint64_t RunChecksum(const std::vector<uint64_t>& per_op) {
  uint64_t h = 0;
  for (size_t i = 0; i < per_op.size() && i < kChecksumOps; ++i) {
    h = Mix(h ^ per_op[i]);
  }
  return h;
}

// --- Output checks ------------------------------------------------------------

StatusOr<Relation> ColdEval(EvalMode mode, const incdb::AlgPtr& q,
                            const Database& snap) {
  switch (mode) {
    case EvalMode::kSetNaive:
      return incdb::EvalSet(q, snap);
    case EvalMode::kBagNaive:
      return incdb::EvalBag(q, snap);
    case EvalMode::kSetSql:
      return incdb::EvalSql(q, snap);
  }
  return incdb::Status::InvalidArgument("unknown mode");
}

/// The SQL text with each `?` replaced by its binding as a literal.
std::string InlineBindings(const std::string& sql,
                           const std::vector<Value>& params) {
  std::string out;
  size_t next = 0;
  for (char ch : sql) {
    if (ch == '?' && next < params.size()) {
      out += params[next++].ToString();
    } else {
      out += ch;
    }
  }
  return out;
}

/// Untimed checks that run between operations. Every check is a pure read
/// of the engine's state (it never touches the Session's caches), so the
/// traced replay, which runs the same checks, sees the same cache history.
class Checker {
 public:
  explicit Checker(const WorkloadSpec& spec)
      : spec_(spec), last_checked_commit_(spec.templates.size(), ~0ULL) {}

  /// Empty when the op's output is correct (or not sampled).
  std::string Check(Engine& e, size_t index, const Op& op, const Outcome& out);

 private:
  std::string CheckAgainstCold(Engine& e, const Op& op, const Relation& got,
                               bool full);

  const WorkloadSpec& spec_;
  Relation last_plus_;
  uint64_t commits_ = 0;
  uint64_t reads_ = 0;
  uint64_t cursors_ = 0;
  uint64_t cached_reads_ = 0;
  std::vector<uint64_t> last_checked_commit_;
};

constexpr size_t kAnalyticCheckEvery = 16;
constexpr uint64_t kReadCheckEvery = 16;
constexpr uint64_t kCursorCheckEvery = 4;

std::string Checker::CheckAgainstCold(Engine& e, const Op& op,
                                      const Relation& got, bool full) {
  const Template& tp = spec_.templates[op.tmpl];
  Database snap = e.session().db().Snapshot();
  incdb::AlgPtr alg;
  if (op.kind == OpKind::kOneShot) {
    auto parsed = incdb::ParseSqlToAlgebra(tp.sql, snap);
    if (!parsed.ok()) return "check parse: " + parsed.status().ToString();
    alg = *parsed;
  } else {
    alg = e.Algebra(op.tmpl);
  }
  auto bound = incdb::BindParams(alg, op.params);
  if (!bound.ok()) return "check bind: " + bound.status().ToString();
  auto cold = ColdEval(tp.mode, *bound, snap);
  if (!cold.ok()) return "cold recompute: " + cold.status().ToString();
  if (full) {
    if (!got.SameRows(*cold)) {
      return std::string(tp.name) + ": result differs from a cold recompute";
    }
  } else if (!got.SubBagOf(*cold)) {
    return std::string(tp.name) +
           ": cursor rows are not part of the cold result";
  }
  return "";
}

std::string Checker::Check(Engine& e, size_t index, const Op& op,
                           const Outcome& out) {
  const Template& tp = spec_.templates[op.tmpl];
  switch (op.kind) {
    case OpKind::kPlus:
      last_plus_ = out.result;
      return "";
    case OpKind::kMaybe:
      // Theorem 4.7 with the identity valuation: Q+(D) ⊆ Q?(D).
      for (const auto& [t, c] : last_plus_.rows()) {
        if (!out.result.Contains(t)) {
          return std::string(tp.name) + ": Q+ answer " + t.ToString() +
                 " missing from Q?";
        }
      }
      return "";
    case OpKind::kMutate:
      ++commits_;
      return "";
    case OpKind::kCursor: {
      if (++cursors_ % kCursorCheckEvery != 0) return "";
      std::string err = CheckAgainstCold(e, op, out.result, /*full=*/false);
      if (!err.empty()) return err;
      // A full drain accumulates exactly the cold result.
      auto cur = e.OpenCursor(op.tmpl, op.params);
      if (!cur.ok()) return "check cursor: " + cur.status().ToString();
      Relation drained(cur->attrs());
      while (cur->Next()) {
        if (!drained.Insert(cur->row(), cur->count()).ok()) {
          return "check cursor: insert failed";
        }
      }
      if (!cur->status().ok()) return "check cursor: " + cur->status().ToString();
      return CheckAgainstCold(e, op, drained, /*full=*/true);
    }
    case OpKind::kExecute:
    case OpKind::kOneShot:
      break;
  }
  if (spec_.name == "analytic") {
    if (index % kAnalyticCheckEvery != 0) return "";
    // Bit-identical to the binding inlined as a literal through EvalSql.
    Database snap = e.session().db().Snapshot();
    auto alg = incdb::ParseSqlToAlgebra(InlineBindings(tp.sql, op.params),
                                        snap);
    if (!alg.ok()) return "check parse: " + alg.status().ToString();
    auto lit = incdb::EvalSql(*alg, snap);
    if (!lit.ok()) return "literal eval: " + lit.status().ToString();
    if (!lit->IdenticalTo(out.result)) {
      return std::string(tp.name) + ": result not bit-identical to the "
             "literal-inlined query";
    }
    return "";
  }
  // oltp: the first read of a cache-resident template after a commit is a
  // maintained (or recomputed) result; every other one of those, plus a
  // sample of the remaining reads, is compared with a cold recompute.
  bool sampled = false;
  if (tp.bind == Bind::kFixed) {
    if (last_checked_commit_[op.tmpl] != commits_) {
      last_checked_commit_[op.tmpl] = commits_;
      sampled = ++cached_reads_ % 2 == 0;
    }
  } else {
    sampled = ++reads_ % kReadCheckEvery == 0;
  }
  return sampled ? CheckAgainstCold(e, op, out.result, /*full=*/true) : "";
}

// --- Host speed ---------------------------------------------------------------

/// Keeps the reference kernel's result observable.
volatile uint64_t reference_sink = 0;

/// A fixed computation that does not touch incdb (hash-map updates and a
/// sort, ~10 ms): how long it takes tells how fast the host runs right now.
double ReferenceKernelMs() {
  const int64_t t0 = NowNs();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::unordered_map<uint64_t, uint64_t> counts;
  for (uint64_t i = 0; i < 40000; ++i) counts[next() & 0xffff] += i;
  std::vector<uint64_t> keys(100000);
  for (uint64_t& k : keys) k = next();
  std::sort(keys.begin(), keys.end());
  uint64_t acc = keys[keys.size() / 2];
  for (const auto& [k, c] : counts) acc += k * c;
  reference_sink = acc;
  return static_cast<double>(NowNs() - t0) * 1e-6;
}

/// Fastest of a few reference-kernel runs.
double FastestReferenceMs() {
  double best = ReferenceKernelMs();
  for (int k = 1; k < 3; ++k) best = std::min(best, ReferenceKernelMs());
  return best;
}

/// The slowest the reference kernel runs on an uncontended vCPU of the
/// machine the bounds were set on (a 4-vCPU Intel Xeon VM: 8.7-10.0 ms).
/// That host's vCPUs at times run ~1.5x slower for minutes while other
/// guests load it; a replay during which even the fastest reference run
/// took longer than this has its times scaled by kCalmReferenceMs over that
/// run, so such stretches do not read as slower code. Replays on a calm
/// host are not scaled; the scale never exceeds 1.
constexpr double kCalmReferenceMs = 10.0;

// --- Runs ---------------------------------------------------------------------

/// Replays of the round per end-to-end run, at least; more follow until the
/// replays have taken --seconds of op time.
constexpr int kMinRounds = 2;
/// Each replay runs on the last of kSetupTries set-ups made back to back.
/// All set-ups of a run (scaled like their replay) are split, in order,
/// into kSetupBlocks blocks; setup_s is the median of the blocks' fastest.
constexpr int kSetupTries = 3;
constexpr size_t kSetupBlocks = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  size_t max_ops = 0;
  std::string spans_out;
};

struct Pass {
  std::vector<double> lat_ms;
  std::vector<OpKind> kinds;
  std::vector<uint32_t> tmpls;
  std::vector<uint64_t> checksums;
  uint64_t failed = 0;
  double op_time_s = 0;
};

/// Side measurement of [37]'s Q+ overhead (traced certain run only):
/// per-template executor times of Q+ and of the plain SQL-3VL query.
struct QplusSide {
  std::map<uint32_t, std::vector<double>> plus_ns, sql_ns;
};

void NoteFailure(Pass* p, const std::string& what) {
  if (p->failed < 5) std::fprintf(stderr, "perfbench: FAIL %s\n", what.c_str());
  ++p->failed;
}

std::string OpLabel(const WorkloadSpec& spec, size_t i, const Op& op) {
  return "op " + std::to_string(i) + " (" + OpKindName(op.kind) + " " +
         spec.templates[op.tmpl].name + ")";
}

/// One engine driven by one closed-loop client: the next op is sent when
/// the previous one returns. Checks run untimed after each op.
struct Client {
  Client(const WorkloadSpec& s, Engine* e, bool check_outputs = true)
      : spec(s), engine(e), checker(s), check(check_outputs) {}

  /// Runs op `i`, records its latency and result checksum, checks it (when
  /// `check`). Returns whether the op succeeded and passed its checks.
  bool Step(size_t i, const Op& op) {
    const int64_t t0 = NowNs();
    Outcome out = engine->Run(op);
    const double ms = static_cast<double>(NowNs() - t0) * 1e-6;
    pass.lat_ms.push_back(ms);
    pass.kinds.push_back(op.kind);
    pass.tmpls.push_back(op.tmpl);
    pass.op_time_s += ms * 1e-3;
    pass.checksums.push_back(out.status.ok() ? ResultChecksum(out.result) : 0);
    if (!out.status.ok()) {
      NoteFailure(&pass, OpLabel(spec, i, op) + ": " + out.status.ToString());
      return false;
    }
    std::string err = check ? checker.Check(*engine, i, op, out) : "";
    if (!err.empty()) {
      NoteFailure(&pass, OpLabel(spec, i, op) + ": " + err);
      return false;
    }
    return true;
  }

  const WorkloadSpec& spec;
  Engine* engine;
  Checker checker;
  bool check;
  Pass pass;
};

/// Whether a run that started at `start` and has sent `i` ops is done:
/// after `max_ops` ops when non-zero, else after `seconds` of op time, with
/// a wall-clock backstop for slow checks.
bool Done(size_t i, const Pass& p, double seconds, size_t max_ops,
          int64_t start) {
  if (max_ops > 0) return i >= max_ops;
  return p.op_time_s >= seconds ||
         static_cast<double>(NowNs() - start) * 1e-9 > seconds * 2.5 + 10;
}

/// Builds the engine and runs the warm-up ops; returns the set-up seconds,
/// or a negative value on failure.
double SetUp(const WorkloadSpec& spec, uint64_t seed, SpanRecorder* rec,
             std::unique_ptr<Engine>* engine) {
  engine->reset();
  // The certain path compiles through the process-wide plan cache; start
  // every set-up from the same (empty) state.
  incdb::PlanCache::Global().Clear();
  if (rec != nullptr) rec->BeginOp(kSetupOp);
  const int64_t t0 = NowNs();
  incdb::Status st = Engine::Create(spec, seed, rec, engine);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 st.ToString().c_str());
    return -1;
  }
  for (const Op& op : Stream(spec, seed).Warmup()) {
    Outcome out = (*engine)->Run(op);
    if (!out.status.ok()) {
      std::fprintf(stderr, "perfbench: warm-up %s failed: %s\n",
                   spec.templates[op.tmpl].name, out.status.ToString().c_str());
      return -1;
    }
  }
  const int64_t t1 = NowNs();
  (*engine)->ResetCounters();
  return static_cast<double>(t1 - t0) * 1e-9;
}

// --- Statistics and output -----------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Pct {
  double value = 0;
  size_t n = 0;
  size_t beyond = 0;  ///< Samples strictly above the percentile's rank.
};

/// Nearest-rank percentile.
Pct Percentile(std::vector<double> v, double q) {
  Pct p;
  p.n = v.size();
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  p.value = v[rank - 1];
  p.beyond = v.size() - rank;
  return p;
}

std::vector<double> Select(const Pass& p, const std::function<bool(OpKind)>& f) {
  std::vector<double> out;
  for (size_t i = 0; i < p.lat_ms.size(); ++i) {
    if (f(p.kinds[i])) out.push_back(p.lat_ms[i]);
  }
  return out;
}

bool IsRead(OpKind k) { return k != OpKind::kMutate; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

void PrintMetric(const Metric& m) {
  std::printf("metric %-36s %14.6f %-6s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.note.c_str());
}

std::string PctNote(const Pct& p) {
  return "(n=" + std::to_string(p.n) + ", beyond=" + std::to_string(p.beyond) +
         (p.n > 0 && p.beyond < 10 && p.value > 0 ? ", TOO FEW SAMPLES" : "") +
         ")";
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int RunEndToEnd(const WorkloadSpec& spec, const Args& a) {
  // Same seed, same data (every set-up below); another seed, other data.
  // Checked before the set-ups so these databases never coexist with the
  // engine in peak_rss_mb.
  const uint64_t data_ck =
      DataChecksum(incdb::tpch::Generate(GenFor(spec, a.seed)));
  bool correct = true;
  if (DataChecksum(incdb::tpch::Generate(GenFor(spec, a.seed + 1))) ==
      data_ck) {
    std::fprintf(stderr, "perfbench: FAIL seeds %" PRIu64 " and %" PRIu64
                 " generate identical data\n", a.seed, a.seed + 1);
    correct = false;
  }
  // The round: the first round_ops requests of the seed's stream. Replays
  // after the first are not checked again, but each of their results must
  // equal the first replay's.
  std::vector<Op> round;
  Stream stream(spec, a.seed);
  round.resize(a.max_ops > 0 ? a.max_ops : spec.round_ops);
  for (Op& op : round) op = stream.Next();

  // Interference from other work on the host only ever adds time, so each
  // request's latency is the fastest of its (scaled) replays.
  std::vector<double> setup_s, scales;
  Pass p;
  double op_time_s = 0;
  int rounds = 0;
  const int64_t start = NowNs();
  while (rounds < kMinRounds ||
         (a.max_ops == 0 && op_time_s < a.seconds &&
          static_cast<double>(NowNs() - start) * 1e-9 < a.seconds * 2 + 10)) {
    std::unique_ptr<Engine> engine;
    double tries_s[kSetupTries];
    for (double& s : tries_s) {
      s = SetUp(spec, a.seed, nullptr, &engine);
      if (s < 0) return 2;
    }
    if (DataChecksum(engine->session().db()) != data_ck) {
      std::fprintf(stderr, "perfbench: FAIL same seed, different data\n");
      correct = false;
    }
    const double ref_before_ms = FastestReferenceMs();
    Client client(spec, engine.get(), /*check_outputs=*/rounds == 0);
    for (size_t i = 0; i < round.size(); ++i) client.Step(i, round[i]);
    const double scale = std::min(
        1.0, kCalmReferenceMs /
                 std::min(ref_before_ms, FastestReferenceMs()));
    scales.push_back(scale);
    for (double s : tries_s) setup_s.push_back(s * scale);
    for (double& ms : client.pass.lat_ms) ms *= scale;
    op_time_s += client.pass.op_time_s;
    if (rounds++ == 0) {
      p = std::move(client.pass);
      continue;
    }
    p.failed += client.pass.failed;
    for (size_t i = 0; i < round.size(); ++i) {
      if (client.pass.checksums[i] != p.checksums[i]) {
        NoteFailure(&p, OpLabel(spec, i, round[i]) + ": replay " +
                            std::to_string(rounds) +
                            " returned another result than replay 1");
      }
      p.lat_ms[i] = std::min(p.lat_ms[i], client.pass.lat_ms[i]);
    }
  }
  p.op_time_s = 0;
  for (double ms : p.lat_ms) p.op_time_s += ms * 1e-3;
  std::vector<double> block_best;
  const size_t blocks = std::min(kSetupBlocks, setup_s.size());
  for (size_t b = 0; b < blocks; ++b) {
    block_best.push_back(*std::min_element(
        setup_s.begin() + b * setup_s.size() / blocks,
        setup_s.begin() + (b + 1) * setup_s.size() / blocks));
  }
  correct &= p.failed == 0;
  const double n = static_cast<double>(p.lat_ms.size());

  const Pct p50 = Percentile(p.lat_ms, 0.50);
  const Pct p99 = Percentile(p.lat_ms, 0.99);
  const Pct r50 = Percentile(Select(p, IsRead), 0.50);
  const std::vector<Metric> e2e = {
      {"throughput_ops", p.op_time_s > 0 ? n / p.op_time_s : 0, "1/s",
       "(ops=" + std::to_string(p.lat_ms.size()) + ", replays=" +
           std::to_string(rounds) + ")"},
      {"latency_p50_ms", p50.value, "ms", PctNote(p50)},
      {"latency_p99_ms", p99.value, "ms", PctNote(p99)},
      {"read_p50_ms", r50.value, "ms", PctNote(r50)},
      {"setup_s", Median(block_best), "s",
       "(median of the fastest set-up in each of " + std::to_string(blocks) +
           " blocks of " + std::to_string(setup_s.size()) + ")"},
      {"peak_rss_mb", PeakRssMb(), "MB", ""},
  };
  std::printf("workload %s seed %" PRIu64
              " ops %zu replays %d op_time_s %.3f best_op_time_s %.3f\n",
              spec.name.c_str(), a.seed, p.lat_ms.size(), rounds, op_time_s,
              p.op_time_s);
  std::printf("host scale min %.3f median %.3f (1 = calm; %d of %d replays "
              "scaled)\n",
              *std::min_element(scales.begin(), scales.end()), Median(scales),
              static_cast<int>(std::count_if(scales.begin(), scales.end(),
                                             [](double x) { return x < 1; })),
              rounds);
  std::printf("checksum %016" PRIx64 " over %zu ops, data %016" PRIx64 "\n",
              RunChecksum(p.checksums),
              std::min(p.checksums.size(), kChecksumOps), data_ck);
  // Per request class: where the latency quantiles fall.
  std::map<std::pair<uint32_t, OpKind>, std::vector<double>> by_class;
  for (size_t i = 0; i < p.lat_ms.size(); ++i) {
    by_class[{p.tmpls[i], p.kinds[i]}].push_back(p.lat_ms[i]);
  }
  for (const auto& [key, lat] : by_class) {
    std::printf(
        "class %-20s %-14s n=%-6zu share=%5.1f%% p10=%.3f p50=%.3f p90=%.3f "
        "ms\n",
        spec.templates[key.first].name, OpKindName(key.second), lat.size(),
        100.0 * static_cast<double>(lat.size()) / n,
        Percentile(lat, 0.10).value, Median(lat), Percentile(lat, 0.90).value);
  }
  for (const Metric& m : e2e) PrintMetric(m);
  // Metrics that exist only on some workloads: printed, not in the JSON.
  const auto kind_is = [](OpKind want) {
    return [want](OpKind k) { return k == want; };
  };
  const std::vector<std::pair<std::string, Pct>> extra = {
      {"read_p99_ms", Percentile(Select(p, IsRead), 0.99)},
      {"write_p50_ms", Percentile(Select(p, kind_is(OpKind::kMutate)), 0.50)},
      {"write_p99_ms", Percentile(Select(p, kind_is(OpKind::kMutate)), 0.99)},
      {"qplus_p50_ms", Percentile(Select(p, kind_is(OpKind::kPlus)), 0.50)},
      {"qmaybe_p50_ms", Percentile(Select(p, kind_is(OpKind::kMaybe)), 0.50)},
  };
  for (const auto& [name, pct] : extra) {
    if (pct.n > 0) PrintMetric({name, pct.value, "ms", PctNote(pct)});
  }
  PrintMetric({"error_rate", n > 0 ? static_cast<double>(p.failed) / n : 0,
               "ratio", "(failed=" + std::to_string(p.failed) + ")"});
  PrintJson(correct, p.lat_ms.size() * static_cast<size_t>(rounds), p.failed,
            e2e);
  return correct ? 0 : 1;
}

double PerCall(const std::vector<LayerTotals>& layers, const char* name,
               double scale) {
  const LayerTotals* t = FindLayer(layers, name);
  return t == nullptr || t->calls == 0 ? 0.0 : t->wall_ns / t->calls * scale;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Per-layer self time as a share of the untraced op time, with the CPU
/// share of each layer's sampled wall time beside it.
void PrintShareTable(const WorkloadSpec& spec,
                     const std::vector<LayerTotals>& layers,
                     double untraced_ns, double unattributed_ns, size_t ops) {
  std::printf("\nlayer shares of untraced op time, workload %s (%zu ops)\n",
              spec.name.c_str(), ops);
  std::printf("  %-32s %9s %11s %8s %11s %6s\n", "layer", "calls",
              "self_ms", "share%", "us_per_op", "cpu%");
  double total = 0;
  for (const LayerTotals& t : layers) {
    if (t.name.rfind("api.", 0) == 0 && t.name.find('.', 4) == std::string::npos) {
      continue;  // op root spans: their self time is tracing glue
    }
    total += t.self_ns;
    std::printf("  %-32s %9" PRIu64 " %11.3f %8.2f %11.3f %6.1f\n",
                t.name.c_str(), t.calls, t.self_ns * 1e-6,
                100.0 * t.self_ns / untraced_ns, t.self_ns * 1e-3 / ops,
                t.sampled_self_ns > 0 ? 100.0 * t.sampled_cpu_ns / t.sampled_self_ns
                                      : 0.0);
  }
  total += unattributed_ns;
  std::printf("  %-32s %9s %11.3f %8.2f %11.3f %6s\n", "api.unattributed", "-",
              unattributed_ns * 1e-6, 100.0 * unattributed_ns / untraced_ns,
              unattributed_ns * 1e-3 / ops, "-");
  std::printf("  %-32s %9s %11.3f %8.2f %11.3f\n\n", "total", "-",
              total * 1e-6, 100.0 * total / untraced_ns, total * 1e-3 / ops);
}

int RunTraced(const WorkloadSpec& spec, const Args& a) {
  // Two engines over the same generated data: the Session (untraced, the
  // reference results and times) and the traced layer path. Each op of the
  // stream runs on both, alternating which goes first so neither gets the
  // warmer caches; the traced result must equal the untraced one.
  std::unique_ptr<Engine> plain, traced_engine;
  SpanRecorder rec;
  if (SetUp(spec, a.seed, nullptr, &plain) < 0) return 2;
  if (SetUp(spec, a.seed, &rec, &traced_engine) < 0) return 2;
  Client untraced(spec, plain.get());
  Client traced(spec, traced_engine.get());
  QplusSide side;
  Stream stream(spec, a.seed);
  const int64_t start = NowNs();
  for (size_t i = 0; !Done(i, untraced.pass, a.seconds / 2, a.max_ops, start);
       ++i) {
    const Op op = stream.Next();
    rec.BeginOp(static_cast<uint32_t>(i + 1));
    bool traced_ok = false;
    if (i % 2 == 0) {
      untraced.Step(i, op);
      traced_ok = traced.Step(i, op);
    } else {
      traced_ok = traced.Step(i, op);
      untraced.Step(i, op);
    }
    if (traced.pass.checksums[i] != untraced.pass.checksums[i]) {
      NoteFailure(&traced.pass, OpLabel(spec, i, op) +
                                    ": traced result differs from untraced");
    } else if (traced_ok && op.kind == OpKind::kPlus) {
      side.plus_ns[op.tmpl].push_back(
          static_cast<double>(traced_engine->last_exec_ns()));
      side.sql_ns[op.tmpl].push_back(static_cast<double>(
          traced_engine->TimeSqlExec(op.tmpl, op.params)));
    }
  }
  const LayerCounters c = traced_engine->counters();
  plain.reset();
  traced_engine.reset();
  const Pass& base = untraced.pass;
  const bool correct = base.failed == 0 && traced.pass.failed == 0;

  const size_t ops = base.lat_ms.size();
  const std::vector<LayerTotals> all = Summarise(rec, /*ops_only=*/false);
  const std::vector<LayerTotals> layers = Summarise(rec, /*ops_only=*/true);

  // Per op: untraced latency minus the traced layer spans directly under
  // the op's root span.
  std::vector<uint32_t> root(ops + 1, Span::kNoParent);
  std::vector<double> attributed(ops + 1, 0.0);
  double approx_exec_ns = 0;
  uint64_t approx_exec_calls = 0;
  const std::vector<Span>& spans = rec.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.op == kSetupOp || s.op > ops) continue;
    if (s.parent == Span::kNoParent) {
      root[s.op] = static_cast<uint32_t>(i);
    } else if (s.parent == root[s.op]) {
      attributed[s.op] += static_cast<double>(s.end_ns - s.start_ns);
    }
    const OpKind k = base.kinds[s.op - 1];
    if ((k == OpKind::kPlus || k == OpKind::kMaybe) &&
        rec.name(s) == "eval.exec") {
      approx_exec_ns += static_cast<double>(s.end_ns - s.start_ns);
      ++approx_exec_calls;
    }
  }
  double untraced_ns = 0, traced_ns = 0, unattributed_ns = 0;
  std::map<std::string, double> unattributed_by_kind;
  for (size_t i = 0; i < ops; ++i) {
    untraced_ns += base.lat_ms[i] * 1e6;
    traced_ns += traced.pass.lat_ms[i] * 1e6;
    const double u = base.lat_ms[i] * 1e6 - attributed[i + 1];
    unattributed_ns += u;
    unattributed_by_kind[OpKindName(base.kinds[i])] += u * 1e-3;
  }
  for (const auto& [kind, us] : unattributed_by_kind) {
    std::printf("unattributed %-14s %12.1f us total\n", kind.c_str(), us);
  }

  // [37]'s Q+ overhead, per template: median Q+ executor time over median
  // SQL-3VL executor time of the same bound query; the median over
  // templates is reported.
  std::vector<double> overheads;
  for (const auto& [t, plus] : side.plus_ns) {
    const double sql = Median(side.sql_ns[t]);
    if (sql > 0) {
      const double pct = 100.0 * (Median(plus) / sql - 1.0);
      overheads.push_back(pct);
      std::printf("qplus_overhead %-22s %8.2f%% (Q+ %.3f ms, SQL %.3f ms, n=%zu)\n",
                  spec.templates[t].name, pct, Median(plus) * 1e-6, sql * 1e-6,
                  plus.size());
    }
  }

  const auto kind_is = [](OpKind want) {
    return [want](OpKind k) { return k == want; };
  };
  const LayerTotals* next = FindLayer(layers, "api.cursor.next");
  const LayerTotals* exec = FindLayer(layers, "eval.exec");
  const std::vector<Metric> per_layer = {
      {"tpch.generate_ms", PerCall(all, "tpch.generate", 1e-6), "ms", ""},
      {"sql.parse_us", PerCall(layers, "sql.parse", 1e-3), "us", ""},
      {"sql.translate_us", PerCall(layers, "sql.translate", 1e-3), "us", ""},
      {"eval.plan_cache.hit_ratio",
       Ratio(c.plan_cache_hits, c.plan_cache_hits + c.plan_cache_misses),
       "ratio", ""},
      {"eval.plan.compile_us", PerCall(layers, "eval.plan.compile", 1e-3), "us",
       ""},
      {"eval.plan.bind_us", PerCall(layers, "eval.plan.bind", 1e-3), "us", ""},
      {"eval.exec_ms", PerCall(layers, "eval.exec", 1e-6), "ms", ""},
      {"eval.exec.ns_per_input_row",
       exec == nullptr || c.exec_input_rows == 0
           ? 0.0
           : exec->wall_ns / static_cast<double>(c.exec_input_rows),
       "ns", ""},
      {"eval.exec.rows_out", Ratio(c.exec_rows_out, c.exec_calls), "count", ""},
      {"approx.translate_us", PerCall(layers, "approx.translate", 1e-3), "us",
       ""},
      {"approx.exec_ms",
       approx_exec_calls == 0 ? 0.0
                              : approx_exec_ns / approx_exec_calls * 1e-6,
       "ms", ""},
      {"approx.qplus_overhead_pct", Median(overheads), "%", ""},
      {"eval.result_cache.hit_ratio", Ratio(c.result_hits, c.result_lookups),
       "ratio", ""},
      {"eval.result_cache.lookup_us",
       PerCall(layers, "eval.result_cache.lookup", 1e-3), "us", ""},
      {"eval.result_cache.insert_us",
       PerCall(layers, "eval.result_cache.insert", 1e-3), "us", ""},
      {"eval.result_cache.maintain_us",
       PerCall(layers, "eval.result_cache.maintain", 1e-3), "us", ""},
      {"eval.result_cache.maintained_ratio",
       Ratio(c.maintained, c.maintained + c.invalidated), "ratio", ""},
      {"core.database.snapshot_us",
       PerCall(layers, "core.database.snapshot", 1e-3), "us", ""},
      {"core.database.stage_us", PerCall(layers, "core.database.stage", 1e-3),
       "us", ""},
      {"core.database.commit_us",
       PerCall(layers, "core.database.commit", 1e-3), "us", ""},
      {"core.database.release_us",
       PerCall(layers, "core.database.release", 1e-3), "us", ""},
      {"eval.delta.propagate_us",
       PerCall(layers, "eval.delta.propagate", 1e-3), "us", ""},
      {"eval.delta.apply_us", PerCall(layers, "eval.delta.apply", 1e-3), "us",
       ""},
      {"api.cursor.open_us", PerCall(layers, "api.cursor.open", 1e-3), "us",
       ""},
      {"api.cursor.next_ns",
       next == nullptr || c.cursor_next_calls == 0
           ? 0.0
           : next->wall_ns / static_cast<double>(c.cursor_next_calls),
       "ns", ""},
      {"api.unattributed_us", ops == 0 ? 0.0 : unattributed_ns / ops * 1e-3,
       "us", ""},
      {"api.read_p50_ms", Percentile(Select(base, IsRead), 0.50).value, "ms",
       ""},
      {"api.read_p99_ms", Percentile(Select(base, IsRead), 0.99).value, "ms",
       ""},
      {"api.write_p50_ms",
       Percentile(Select(base, kind_is(OpKind::kMutate)), 0.50).value, "ms",
       ""},
      {"api.write_p99_ms",
       Percentile(Select(base, kind_is(OpKind::kMutate)), 0.99).value, "ms",
       ""},
      {"api.qplus_p50_ms",
       Percentile(Select(base, kind_is(OpKind::kPlus)), 0.50).value, "ms", ""},
      {"api.qmaybe_p50_ms",
       Percentile(Select(base, kind_is(OpKind::kMaybe)), 0.50).value, "ms",
       ""},
      {"trace.overhead_pct",
       untraced_ns > 0 ? 100.0 * (traced_ns / untraced_ns - 1.0) : 0.0, "%",
       ""},
  };

  std::printf("workload %s seed %" PRIu64 " traced replay of %zu ops\n",
              spec.name.c_str(), a.seed, ops);
  std::printf("checksum %016" PRIx64 " over %zu ops\n",
              RunChecksum(base.checksums), std::min(ops, kChecksumOps));
  if (ops > 0) PrintShareTable(spec, layers, untraced_ns, unattributed_ns, ops);
  for (const Metric& m : per_layer) PrintMetric(m);
  constexpr size_t kMaxSpansWritten = 200'000;  // ~10 MB of TSV
  if (!a.spans_out.empty() && !rec.WriteTsv(a.spans_out, kMaxSpansWritten)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", a.spans_out.c_str());
  }
  PrintJson(correct, base.lat_ms.size() + traced.pass.lat_ms.size(),
            base.failed + traced.pass.failed, per_layer);
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a->trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (flag == "--max-ops") {
      a->max_ops = std::strtoull(v, &end, 10);
    } else if (flag == "--spans-out") {
      a->spans_out = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--max-ops N] [--spans-out PATH]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(a.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  return a.trace == 0 ? RunEndToEnd(*spec, a) : RunTraced(*spec, a);
}
