#ifndef INCDB_BENCH_BENCH_UTIL_H_
#define INCDB_BENCH_BENCH_UTIL_H_

/// Shared runner for the experiment binaries: each bench_*.cpp checks one
/// shape of the paper's results (E1..E11, named by its bench::Header) or
/// times primitives (bench_micro). BUILDING.md "The benchmark runner"
/// documents the flags and the JSON records.
///
/// Each bench_*.cpp registers one or more named benchmarks with
/// INCDB_BENCH(name) { ... } and links against bench_runner, whose
/// bench_main.cpp supplies the common main().  The runner provides
///   --list             print registered benchmark names and exit
///   --filter <substr>  run only benchmarks whose name contains <substr>
///   --reps <n>         timing repetitions (best-of-n, default 3)
///   --warmup <n>       untimed warmup runs before timing (default 0)
///   --json <path>      write one uniform JSON record per Report() call
///                      (the file is rewritten on every run)
///
/// A JSON record has a fixed schema so every experiment can populate the
/// BENCH_*.json perf trajectory:
///   {"bench": <binary>, "name": <record>, "ms": <double|null>,
///    "params": {...}, "reps": <int|null>, "warmup": <int|null>,
///    "git_rev": <sha>}
/// reps/warmup are per record (null for untimed records): benchmarks that
/// time with a deliberate repetition count declare it via Record::Timing.

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace incdb {
namespace bench {

/// Wall-clock milliseconds of the best of `reps` runs of `fn`, after
/// `warmup` untimed runs.  Prefer Context::TimeMs inside benchmarks so
/// --reps/--warmup take effect.
inline double TimeMs(const std::function<void()>& fn, int reps = 3,
                     int warmup = 0) {
  for (int i = 0; i < warmup; ++i) fn();
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    auto start = std::chrono::steady_clock::now();
    fn();
    auto end = std::chrono::steady_clock::now();
    double ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            end - start)
            .count();
    if (ms < best) best = ms;
  }
  return best;
}

/// One result row: a named measurement plus free-form parameters.
/// Numeric parameters are emitted as JSON numbers, strings as JSON
/// strings; `ms` is null for correctness-only records (counts, verdicts).
class Record {
 public:
  Record(std::string name, double ms, bool timed, int reps, int warmup)
      : name_(std::move(name)),
        ms_(ms),
        timed_(timed),
        reps_(reps),
        warmup_(warmup) {}

  Record& Param(const std::string& key, const std::string& value);
  Record& Param(const std::string& key, const char* value);
  Record& Param(const std::string& key, double value);
  Record& Param(const std::string& key, int64_t value);
  Record& Param(const std::string& key, int value);
  Record& Param(const std::string& key, bool value);

  /// Declares the timing provenance of this record when it differs from
  /// the runner flags — e.g. totals accumulated over single runs.
  Record& Timing(int reps, int warmup = 0) {
    reps_ = reps;
    warmup_ = warmup;
    return *this;
  }

  const std::string& name() const { return name_; }
  double ms() const { return ms_; }
  bool timed() const { return timed_; }
  int reps() const { return reps_; }
  int warmup() const { return warmup_; }
  const std::vector<std::pair<std::string, std::string>>& params() const {
    return params_;
  }

 private:
  // Param values are stored pre-rendered as JSON fragments.
  std::string name_;
  double ms_;
  bool timed_;
  int reps_;
  int warmup_;
  std::vector<std::pair<std::string, std::string>> params_;
};

/// Handed to each benchmark body: timing honoring --reps/--warmup and
/// result reporting feeding --json.
class Context {
 public:
  Context(int reps, int warmup) : reps_(reps), warmup_(warmup) {}

  int reps() const { return reps_; }
  int warmup() const { return warmup_; }

  /// Best-of-reps() wall-clock ms after warmup() untimed runs. Pass
  /// `reps_override` > 0 for measurements that deliberately ignore
  /// --reps (e.g. runs that exhaust a resource budget deterministically);
  /// declare the override on the record via Record::Timing.
  double TimeMs(const std::function<void()>& fn, int reps_override = 0) const {
    return bench::TimeMs(fn, reps_override > 0 ? reps_override : reps_,
                         reps_override > 0 ? 0 : warmup_);
  }

  /// Record a timed measurement; chain .Param(...) for its parameters.
  /// The record inherits the runner's --reps/--warmup; use .Timing() when
  /// the measurement was taken differently.
  Record& Report(const std::string& name, double ms) {
    records_.emplace_back(name, ms, /*timed=*/true, reps_, warmup_);
    return records_.back();
  }

  /// Record an untimed (correctness / count) result; its JSON reps/warmup
  /// are null.
  Record& ReportInfo(const std::string& name) {
    records_.emplace_back(name, 0.0, /*timed=*/false, 0, 0);
    return records_.back();
  }

  const std::vector<Record>& records() const { return records_; }

  /// Mark the run failed (shape deviates); the runner exits nonzero.
  void SetFailed() { failed_ = true; }
  bool failed() const { return failed_; }

 private:
  int reps_;
  int warmup_;
  bool failed_ = false;
  std::vector<Record> records_;
};

using BenchFn = std::function<void(Context&)>;

/// Static-initializer registration hook; use via INCDB_BENCH.
int RegisterBench(const std::string& name, BenchFn fn);

/// Short git revision baked in at configure time ("unknown" outside git).
const char* GitRev();

/// Common main(): parses flags, runs matching benchmarks, writes JSON.
int Main(int argc, char** argv);

#define INCDB_BENCH(name)                                              \
  static void incdb_bench_##name(::incdb::bench::Context& ctx);        \
  static const int incdb_bench_reg_##name [[maybe_unused]] =           \
      ::incdb::bench::RegisterBench(#name, &incdb_bench_##name);       \
  static void incdb_bench_##name(::incdb::bench::Context& ctx)

inline void Header(const char* exp_id, const char* title,
                   const char* paper_claim) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", exp_id, title);
  std::printf("Paper: %s\n", paper_claim);
  std::printf("================================================================\n\n");
}

inline void Footer(bool shape_holds, const char* verdict) {
  std::printf("\n>> shape %s: %s\n\n", shape_holds ? "HOLDS" : "DEVIATES",
              verdict);
}

}  // namespace bench
}  // namespace incdb

#endif  // INCDB_BENCH_BENCH_UTIL_H_
