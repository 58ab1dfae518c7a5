// Compiled-plan cache (see plan_cache.h for the contract).
//
// The key serialization is deliberately boring: every variable-length
// field is length-prefixed and every node carries its kind byte plus
// presence markers for children, so no two distinct trees can serialize
// to the same bytes. Entries are compared by full key equality (the map
// key *is* the serialization), so hash collisions only cost a probe.

#include "eval/plan_cache.h"

#include <cstring>
#include <utility>

#include "eval/verify.h"

namespace incdb {

namespace {

void AppendU64(std::string* k, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, sizeof(v));
  k->append(buf, sizeof(buf));
}

void AppendByte(std::string* k, uint8_t b) {
  k->push_back(static_cast<char>(b));
}

/// Compact length prefix: one byte below 255, escaped to 8 bytes above
/// (attribute names and list sizes are short; the escape keeps the
/// encoding unambiguous for pathological inputs).
void AppendLen(std::string* k, uint64_t n) {
  if (n < 0xFF) {
    AppendByte(k, static_cast<uint8_t>(n));
  } else {
    AppendByte(k, 0xFF);
    AppendU64(k, n);
  }
}

void AppendStr(std::string* k, const std::string& s) {
  AppendLen(k, s.size());
  k->append(s);
}

void AppendAttrs(std::string* k, const std::vector<std::string>& attrs) {
  AppendLen(k, attrs.size());
  for (const std::string& a : attrs) AppendStr(k, a);
}

void AppendValue(std::string* k, const Value& v) {
  AppendByte(k, static_cast<uint8_t>(v.kind()));
  switch (v.kind()) {
    case ValueKind::kNull:
      AppendU64(k, v.null_id());
      break;
    case ValueKind::kInt:
      AppendU64(k, static_cast<uint64_t>(v.as_int()));
      break;
    case ValueKind::kDouble: {
      double d = v.as_double();
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      AppendU64(k, bits);
      break;
    }
    case ValueKind::kString:
      AppendStr(k, v.as_string());
      break;
    case ValueKind::kParam:
      // Placeholders key by index, so one prepared-query *shape* shares a
      // single entry across every binding (the kind byte separates ?0 from
      // the integer constant 0).
      AppendU64(k, v.param_index());
      break;
  }
}

/// Kind-driven: only the fields the condition kind actually reads are
/// serialized — the kind byte makes the layout self-describing, so the
/// encoding stays unambiguous while touching far fewer bytes.
void AppendCond(std::string* k, const CondPtr& c) {
  AppendByte(k, static_cast<uint8_t>(c->kind));
  if (c->kind == CondKind::kAnd || c->kind == CondKind::kOr) {
    AppendCond(k, c->left);
    AppendCond(k, c->right);
    return;
  }
  const size_t operands = CondAttrOperands(c->kind);
  if (operands >= 1) AppendStr(k, c->lhs);
  if (operands == 2) AppendStr(k, c->rhs);
  if (KindHasConstant(c->kind)) AppendValue(k, c->constant);
}

/// Serializes the tree, kind-driven like AppendCond; each kScan node also
/// carries the *current* schema of the relation it scans. Those schema
/// bytes are the invalidation handle — a schema change flips them and the
/// stale entry stops matching. Missing relations serialize distinctly
/// (the compile will fail; failures are never cached).
void AppendAlg(std::string* k, const AlgPtr& q, const Database& db) {
  AppendByte(k, static_cast<uint8_t>(q->kind));
  switch (q->kind) {
    case OpKind::kScan:
      AppendStr(k, q->rel_name);
      if (db.Has(q->rel_name)) {
        AppendByte(k, 1);
        AppendAttrs(k, db.at(q->rel_name).attrs());
      } else {
        AppendByte(k, 0);
      }
      return;
    case OpKind::kSelect:
      AppendCond(k, q->cond);
      AppendAlg(k, q->left, db);
      return;
    case OpKind::kProject:
    case OpKind::kRename:
      AppendAttrs(k, q->attrs);
      AppendAlg(k, q->left, db);
      return;
    case OpKind::kDistinct:
      AppendAlg(k, q->left, db);
      return;
    case OpKind::kProduct:
    case OpKind::kUnion:
    case OpKind::kDifference:
    case OpKind::kIntersect:
    case OpKind::kDivision:
    case OpKind::kAntijoinUnify:
      AppendAlg(k, q->left, db);
      AppendAlg(k, q->right, db);
      return;
    case OpKind::kJoin:
    case OpKind::kSemijoin:
    case OpKind::kAntijoin:
      AppendCond(k, q->cond);
      AppendAlg(k, q->left, db);
      AppendAlg(k, q->right, db);
      return;
    case OpKind::kIn:
    case OpKind::kNotIn:
      AppendCond(k, q->cond);
      AppendAttrs(k, q->attrs);
      AppendAttrs(k, q->attrs2);
      AppendAlg(k, q->left, db);
      AppendAlg(k, q->right, db);
      return;
    case OpKind::kDom:
      AppendAttrs(k, q->attrs);
      AppendLen(k, q->dom_arity);
      AppendLen(k, q->dom_extra.size());
      for (const Value& v : q->dom_extra) AppendValue(k, v);
      return;
  }
}

void AppendOptions(std::string* k, const EvalOptions& opts) {
  AppendU64(k, opts.max_tuples);
  AppendByte(k, static_cast<uint8_t>((opts.enable_hash_join << 0) |
                                     (opts.enable_or_expansion << 1) |
                                     (opts.enable_projection_fusion << 2) |
                                     (opts.enable_unify_index << 3) |
                                     (opts.enable_selection_pushdown << 4)));
  // The resolved thread count, so num_threads=0 and an explicit
  // hardware_concurrency() request share an entry.
  AppendU64(k, ResolveNumThreads(opts.num_threads));
  AppendU64(k, opts.parallel_min_rows);
  // batch_size does not change plan shape today, but cached plans carry
  // their options into execution, so it must participate in identity.
  AppendU64(k, opts.batch_size);
}

void BuildKey(std::string* key, const AlgPtr& q, EvalMode mode,
              const EvalOptions& opts, const Database& db) {
  key->clear();
  AppendByte(key, static_cast<uint8_t>(mode));
  AppendOptions(key, opts);
  AppendAlg(key, q, db);
}

/// Per-thread key buffer: steady-state lookups serialize into retained
/// capacity and allocate nothing (the key is copied only on insert).
std::string& KeyBuffer() {
  thread_local std::string buffer;
  return buffer;
}

}  // namespace

StatusOr<PlanPtr> PlanCache::CompileCached(const AlgPtr& q, EvalMode mode,
                                           const EvalOptions& opts,
                                           const Database& db) {
  std::string& key = KeyBuffer();
  BuildKey(&key, q, mode, opts, db);
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.plan;
    }
    ++misses_;
  }
  // Compile outside the lock: a racing thread on the same cold key wastes
  // one compile, but never blocks the cache for microseconds.
  auto plan = Compile(q, mode, opts, db);
  if (!plan.ok()) return plan.status();
  // A cached plan is served to arbitrarily many later executions — a
  // malformed one must never enter the map (Debug/sanitizer builds only;
  // see eval/verify.h).
  INCDB_RETURN_IF_ERROR(internal::MaybeVerifyPlan(**plan));
  std::lock_guard<std::mutex> lk(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    // A racing thread inserted first; serve one canonical plan.
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return it->second.plan;
  }
  lru_.push_front(key);
  map_.emplace(key, Entry{*plan, lru_.begin()});
  while (map_.size() > capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
  return *plan;
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  PlanCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.size = map_.size();
  s.capacity = capacity_;
  return s;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lk(mu_);
  map_.clear();
  lru_.clear();
}

PlanCache& PlanCache::Global() {
  static PlanCache* cache = new PlanCache();  // leaked: process lifetime
  return *cache;
}

std::string PlanCacheKey(const AlgPtr& q, EvalMode mode,
                         const EvalOptions& opts, const Database& db) {
  std::string key;
  BuildKey(&key, q, mode, opts, db);
  return key;
}

void AppendValueKey(std::string* key, const Value& v) {
  AppendValue(key, v);
}

}  // namespace incdb
