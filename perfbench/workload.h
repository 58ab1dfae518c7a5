#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// The benchmark's workloads: data shape, query templates and the seeded
// request stream each one replays. The engine only ever sees the generated
// database and the operations the stream produces.

#include <cstdint>
#include <deque>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/tuple.h"
#include "core/value.h"
#include "eval/plan.h"
#include "tpch/tpch.h"

namespace perfbench {

/// How a template is driven through the Session facade.
enum class Use : uint8_t {
  kPrepared,  ///< PreparedQuery::Execute.
  kOneShot,   ///< Session::Execute(sql, params): parse + translate per call.
  kCursor,    ///< PreparedQuery::OpenCursor, first kCursorRows rows.
  kCertain,   ///< Session::CertainPlus then CertainMaybe, same binding.
  kMutate,    ///< Session::Mutate inserting or removing rows.
};

/// How a template's `?` parameters are bound.
enum class Bind : uint8_t {
  kNone,       ///< No parameters.
  kFresh,      ///< One threshold from [lo, hi), never repeated in a run.
  kFixed,      ///< Always lo (so results are cache-resident).
  kZipf,       ///< One key from [lo, hi), Zipf-distributed.
  kZipfRange,  ///< Two keys: k ~ Zipf over [lo, hi), then k + kRangeWidth.
};

struct Template {
  const char* name;
  const char* sql;  ///< Empty for kMutate.
  incdb::EvalMode mode;
  Use use;
  Bind bind;
  int64_t lo = 0;
  int64_t hi = 0;
  uint32_t weight = 1;  ///< Share of the request mix.
};

inline constexpr size_t kCursorRows = 10;
inline constexpr int64_t kRangeWidth = 3;

enum class OpKind : uint8_t {
  kExecute,
  kOneShot,
  kCursor,
  kMutate,
  kPlus,
  kMaybe,
};

const char* OpKindName(OpKind k);

struct RowChange {
  const char* rel;
  incdb::Tuple row;
  bool insert;
};

struct Op {
  OpKind kind = OpKind::kExecute;
  uint32_t tmpl = 0;
  std::vector<incdb::Value> params;
  std::vector<RowChange> changes;  ///< kMutate only.
};

struct WorkloadSpec {
  std::string name;
  double scale;
  double null_rate;
  std::vector<Template> templates;
  /// Requests per replayed round of an end-to-end run: a whole number of
  /// template decks (the sum of the weights), with ten or more beyond
  /// the p99.
  size_t round_ops;
};

/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

incdb::tpch::GenOptions GenFor(const WorkloadSpec& spec, uint64_t seed);

/// The deterministic request stream of one workload: the same (spec, seed)
/// always yields the same operations, independent of what the engine
/// returns. A certain pair (Q+ then Q?) counts as two operations.
class Stream {
 public:
  Stream(const WorkloadSpec& spec, uint64_t seed);

  Op Next();

  /// One op per read template (both halves for certain templates) with a
  /// binding the stream itself never draws; run during set-up.
  std::vector<Op> Warmup() const;

 private:
  int64_t Zipf();
  std::vector<incdb::Value> Bindings(uint32_t t);
  Op Mutation(uint32_t t);
  incdb::Value MaybeNull(incdb::Value v);

  const WorkloadSpec& spec_;
  std::mt19937_64 rng_;
  /// Templates still to send from the current deck: each deck holds every
  /// template `weight` times in a seeded shuffle, so any run of whole decks
  /// has exactly the mix of the weights, whatever the seed.
  std::vector<uint32_t> deck_;
  std::vector<std::unordered_set<int64_t>> used_;  ///< kFresh draws.
  std::vector<double> zipf_cdf_;
  std::vector<int64_t> zipf_keys_;  ///< Rank → key (seeded shuffle).
  std::deque<Op> pending_;          ///< Second half of a certain pair.
  std::deque<std::vector<RowChange>> inserted_;  ///< Undone FIFO.
  int64_t next_orderkey_ = 0;
  uint64_t next_null_ = uint64_t{1} << 40;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
