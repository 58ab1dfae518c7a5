#ifndef INCDB_EVAL_PLAN_CACHE_H_
#define INCDB_EVAL_PLAN_CACHE_H_

/// \file plan_cache.h
/// \brief Compiled-plan cache keyed by structural query identity.
///
/// Compilation (eval/plan.cpp) costs a few microseconds per call — pure
/// overhead for callers that evaluate the same query repeatedly (the
/// brute-force certainty sweeps re-run one query over thousands of
/// possible worlds; production traffic repeats a fixed workload). The
/// cache makes EvalSet/EvalBag/EvalSql lookup-then-execute.
///
/// **Keying.** The cache key is an unambiguous byte serialization of
///  * the algebra tree (operator kinds, relation names, conditions with
///    their constants, projection/rename attribute lists, Dom arity and
///    extras) — *structural* identity: two independently built but
///    structurally equal trees share one entry, while α-renamed queries
///    (same shape, different attribute names) key separately because
///    attribute names are semantic here;
///  * the evaluation mode and every plan-relevant EvalOptions field
///    (rewrite-pass toggles, max_tuples, the resolved num_threads,
///    parallel_min_rows) — the options are baked into the compiled plan;
///  * the schemas (name + attribute list) of every relation the query
///    scans, as read from the database at lookup time.
/// Entries are compared by the full key bytes, never just the hash, so
/// hash collisions cannot alias two distinct queries.
///
/// **Invalidation.** Because the scanned schemas are part of the key, a
/// schema change (Database::Put with different attributes, or a dropped /
/// added relation) makes the next lookup miss and recompile; the stale
/// entry ages out of the LRU ring. Clear() drops everything eagerly.
/// Plans depend on schemas only, so two databases with identical schemas
/// (e.g. the possible worlds of a valuation sweep) share entries — that is
/// the point, not a leak.
///
/// **Thread-safety.** All public methods are safe to call concurrently; a
/// single mutex guards the map + LRU list (lookups also write — they touch
/// the LRU order and the hit counter). Compilation on a miss runs
/// *outside* the lock: two threads racing on the same cold key may both
/// compile, and the loser's plan is dropped — wasted work, never wrong
/// results.

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "eval/plan.h"

namespace incdb {

/// Introspection counters for tests and benchmarks.
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  size_t size = 0;      ///< Entries currently cached.
  size_t capacity = 0;  ///< LRU capacity.
};

class PlanCache {
 public:
  static constexpr size_t kDefaultCapacity = 512;

  explicit PlanCache(size_t capacity = kDefaultCapacity)
      : capacity_(capacity > 0 ? capacity : 1) {}
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Lookup-then-compile: returns the cached plan for (q, mode, opts,
  /// scanned schemas of db) or compiles, caches and returns it.
  /// Compilation errors are returned verbatim and never cached.
  StatusOr<PlanPtr> CompileCached(const AlgPtr& q, EvalMode mode,
                                  const EvalOptions& opts, const Database& db);

  PlanCacheStats stats() const;

  /// Drops every entry (explicit invalidation); counters keep running.
  void Clear();

  /// The process-wide cache behind EvalSet/EvalBag/EvalSql
  /// (EvalOptions::use_plan_cache).
  static PlanCache& Global();

 private:
  struct Entry {
    PlanPtr plan;
    std::list<std::string>::iterator lru_it;  ///< Position in lru_.
  };

  mutable std::mutex mu_;
  size_t capacity_;
  uint64_t hits_ = 0, misses_ = 0, evictions_ = 0;
  std::list<std::string> lru_;  ///< Keys, most recently used first.
  std::unordered_map<std::string, Entry> map_;
};

/// The exact key bytes a lookup would use — exposed so tests can assert
/// what does (and does not) participate in query identity. The result
/// cache (eval/result_cache.h) uses it as the query-identity prefix of its
/// own keys.
std::string PlanCacheKey(const AlgPtr& q, EvalMode mode,
                         const EvalOptions& opts, const Database& db);

/// Appends the unambiguous serialization of `v` (kind byte + payload) that
/// plan-cache keys use for condition constants — shared with the result
/// cache's parameter-binding digests.
void AppendValueKey(std::string* key, const Value& v);

}  // namespace incdb

#endif  // INCDB_EVAL_PLAN_CACHE_H_
