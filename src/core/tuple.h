#ifndef INCDB_CORE_TUPLE_H_
#define INCDB_CORE_TUPLE_H_

/// \file tuple.h
/// \brief Tuples over Const ∪ Null, plus the unifiability test r̄ ⇑ s̄
/// used throughout the paper (anti-semijoin ⋉⇑ in Fig. 2, the ⟦·⟧unif
/// semantics in §5.1).

#include <cstddef>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "core/value.h"

namespace incdb {

/// \brief A fixed-arity tuple of values.
///
/// Comparison and hashing are syntactic (component-wise Value semantics),
/// which makes containers of tuples behave like the paper's sets of tuples
/// over Const ∪ Null.
///
/// The hash is computed once and cached; any mutating access invalidates
/// it. Since Value is trivially copyable, copying a tuple is a single
/// allocation plus a memcpy, and the evaluators reuse scratch tuples via
/// AssignConcat/AssignProject to keep their per-pair hot paths free of
/// allocations entirely.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}
  Tuple(std::initializer_list<Value> values) : values_(values) {}

  Tuple(const Tuple&) = default;
  Tuple& operator=(const Tuple&) = default;
  Tuple(Tuple&& other) noexcept
      : values_(std::move(other.values_)), hash_(other.hash_) {
    other.hash_ = kDirtyHash;
  }
  Tuple& operator=(Tuple&& other) noexcept {
    values_ = std::move(other.values_);
    hash_ = other.hash_;
    other.hash_ = kDirtyHash;
    return *this;
  }

  size_t arity() const { return values_.size(); }
  const Value& operator[](size_t i) const { return values_[i]; }
  /// Mutable access invalidates the cached hash.
  Value& operator[](size_t i) {
    hash_ = kDirtyHash;
    return values_[i];
  }
  const std::vector<Value>& values() const { return values_; }

  void Append(Value v) {
    hash_ = kDirtyHash;
    values_.push_back(v);
  }
  /// Overwrites component `i` (equivalent to `(*this)[i] = v`).
  void Set(size_t i, Value v) {
    hash_ = kDirtyHash;
    values_[i] = v;
  }
  void Reserve(size_t n) { values_.reserve(n); }
  void Clear() {
    hash_ = kDirtyHash;
    values_.clear();
  }

  /// Concatenation r̄s̄ (juxtaposition in the paper).
  Tuple Concat(const Tuple& other) const;
  /// Projection onto the given positions (may repeat / reorder).
  Tuple Project(const std::vector<size_t>& positions) const;

  /// Makes `this` the concatenation a·b, reusing existing capacity. The
  /// allocation-free counterpart of Concat for evaluator scratch tuples.
  void AssignConcat(const Tuple& a, const Tuple& b);
  /// Makes `this` the projection of `src` onto `positions`, reusing
  /// existing capacity.
  void AssignProject(const Tuple& src, const std::vector<size_t>& positions);

  /// True iff every component is a constant (Const(ā) in §5.2).
  bool AllConst() const;
  /// True iff some component is a null.
  bool HasNull() const { return !AllConst(); }

  bool operator==(const Tuple& other) const {
    if (values_.size() != other.values_.size()) return false;
    if (hash_ != kDirtyHash && other.hash_ != kDirtyHash &&
        hash_ != other.hash_) {
      return false;  // cached hashes disagree: cannot be equal
    }
    return values_ == other.values_;
  }
  bool operator!=(const Tuple& other) const { return !(*this == other); }
  bool operator<(const Tuple& other) const;

  /// Component-wise hash, computed lazily and cached until mutation.
  size_t Hash() const {
    if (hash_ == kDirtyHash) hash_ = ComputeHash();
    return hash_;
  }

  /// Project(positions).Hash(), computed in place: KeyIndex hashes join
  /// and membership keys this way instead of copying a key tuple.
  size_t ProjectedHash(const std::vector<size_t>& positions) const {
    size_t h = kHashSeed;
    for (size_t p : positions) h = HashStep(h, values_[p]);
    return h == kDirtyHash ? kHashSeed : h;
  }
  /// Project(positions) == other.Project(other_positions), in place.
  bool ProjectedEq(const std::vector<size_t>& positions, const Tuple& other,
                   const std::vector<size_t>& other_positions) const {
    for (size_t i = 0; i < positions.size(); ++i) {
      if (values_[positions[i]] != other.values_[other_positions[i]]) {
        return false;
      }
    }
    return true;
  }

  /// Renders e.g. "(1, 'a', ⊥2)".
  std::string ToString() const;

 private:
  static constexpr size_t kDirtyHash = ~static_cast<size_t>(0);
  static constexpr size_t kHashSeed = 0x51ed270b;

  /// One component's contribution to the running hash `h`.
  static size_t HashStep(size_t h, const Value& v) {
    return h ^ (v.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  }

  size_t ComputeHash() const;

  std::vector<Value> values_;
  mutable size_t hash_ = kDirtyHash;
};

/// \brief Unifiability r̄ ⇑ s̄: is there a valuation v with v(r̄) = v(s̄)?
///
/// Decided by union-find over the nulls occurring in the two tuples; the
/// tuples unify unless some equivalence class is forced to contain two
/// distinct constants. Linear-time in the spirit of Paterson–Wegman [57].
bool Unifiable(const Tuple& a, const Tuple& b);

}  // namespace incdb

namespace std {
template <>
struct hash<incdb::Tuple> {
  size_t operator()(const incdb::Tuple& t) const { return t.Hash(); }
};
}  // namespace std

#endif  // INCDB_CORE_TUPLE_H_
