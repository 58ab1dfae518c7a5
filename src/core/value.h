#ifndef INCDB_CORE_VALUE_H_
#define INCDB_CORE_VALUE_H_

/// \file value.h
/// \brief Domain elements of incomplete databases: constants and marked
/// nulls (paper §2, "Incomplete databases").
///
/// Databases are populated by two kinds of elements: *constants* from a
/// countably infinite set Const, and *nulls* ⊥_i from a countably infinite
/// set Null. Nulls are *marked* (labelled): the same null id may repeat
/// within and across relations, which is strictly more general than SQL's
/// Codd nulls. Constants are typed (int64, double, string) to support the
/// TPC-H-like workloads; equality across constant types is syntactic
/// (an Int(1) is a different constant from String("1")).

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>

#include "core/intern.h"
#include "core/status.h"

namespace incdb {

/// Discriminator for the Value tagged union. Order matters: it defines the
/// (arbitrary but deterministic) total order used to sort output relations.
enum class ValueKind : uint8_t {
  kNull = 0,
  kInt = 1,
  kDouble = 2,
  kString = 3,
  /// A query parameter placeholder ?i (prepared queries, api/session.h).
  /// Parameters only ever appear inside query trees — selection-condition
  /// constants and Dom extras — never in relation data; they are
  /// substituted by a bound constant before any evaluation runs.
  kParam = 4,
};

/// \brief One element of Const ∪ Null.
///
/// Immutable value type. Nulls carry an id, making them marked nulls ⊥_id;
/// Codd nulls are recovered by never reusing an id (see
/// Database::CoddifyNulls). Equality is syntactic: ⊥_1 == ⊥_1, ⊥_1 != ⊥_2,
/// and a null never equals a constant. This syntactic equality is exactly
/// what naive evaluation (paper §4.1) needs.
///
/// Layout: a 16-byte trivially-copyable tagged struct. Int64, double
/// bit-pattern and null-id payloads live inline in `bits_`; string payloads
/// are interned through StringPool and `bits_` holds the intern id, so
/// string equality and hashing are id comparisons (content lives in the
/// pool, shared by every occurrence).
class Value {
 public:
  /// Constants.
  static Value Int(int64_t v) {
    return Value(ValueKind::kInt, static_cast<uint64_t>(v));
  }
  static Value Double(double v);
  static Value String(std::string v) {
    return Value(ValueKind::kString, StringPool::Intern(std::move(v)));
  }
  /// A string constant from an already-interned pool id.
  static Value InternedString(uint32_t id) {
    return Value(ValueKind::kString, id);
  }
  /// The marked null ⊥_id.
  static Value Null(uint64_t id) { return Value(ValueKind::kNull, id); }
  /// The parameter placeholder ?index (0-based, assigned in query order).
  static Value Param(uint32_t index) {
    return Value(ValueKind::kParam, index);
  }

  constexpr Value() : kind_(ValueKind::kInt), bits_(0) {}

  ValueKind kind() const { return kind_; }
  bool is_null() const { return kind_ == ValueKind::kNull; }
  bool is_param() const { return kind_ == ValueKind::kParam; }
  /// True for genuine constants: neither a null nor a parameter
  /// placeholder.
  bool is_const() const { return !is_null() && !is_param(); }

  /// The 0-based index of a parameter placeholder.
  uint32_t param_index() const;

  uint64_t null_id() const;
  int64_t as_int() const {
    assert(kind_ == ValueKind::kInt);
    return static_cast<int64_t>(bits_);
  }
  double as_double() const;
  /// The interned contents; stable reference into the StringPool.
  const std::string& as_string() const;
  /// The StringPool id of a string constant.
  uint32_t string_id() const;

  /// Syntactic equality (marked-null identity; strings by intern id, which
  /// coincides with content equality).
  bool operator==(const Value& other) const {
    return kind_ == other.kind_ && bits_ == other.bits_;
  }
  bool operator!=(const Value& other) const { return !(*this == other); }
  /// Deterministic total order: by kind, then payload (strings by content).
  bool operator<(const Value& other) const;

  /// Renders e.g. "42", "3.5", "'abc'", "⊥3".
  std::string ToString() const;

  /// Hash compatible with operator==.
  size_t Hash() const {
    uint64_t x = bits_ + static_cast<uint64_t>(kind_) * 0x9e3779b97f4a7c15ULL;
    // splitmix64-style finalizer: cheap, good dispersion of dense ids.
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<size_t>(x);
  }

 private:
  constexpr Value(ValueKind kind, uint64_t bits) : kind_(kind), bits_(bits) {}

  ValueKind kind_;
  uint64_t bits_;  // int64 payload, double bit-pattern, null id or intern id.
};

static_assert(std::is_trivially_copyable_v<Value>,
              "Value must stay trivially copyable: relations memcpy rows");
static_assert(sizeof(Value) <= 16, "Value must stay within 16 bytes");

/// Checked conversion of a whole numeral to `T` (int64_t, uint64_t or
/// double; one leading '+' is allowed). Trailing characters, a malformed
/// numeral and a value outside T's range are kInvalidArgument — the SQL
/// and CSV literal readers go through here, so no literal can abort the
/// process with an exception.
template <typename T>
StatusOr<T> ParseNumber(const std::string& text);

}  // namespace incdb

namespace std {
template <>
struct hash<incdb::Value> {
  size_t operator()(const incdb::Value& v) const { return v.Hash(); }
};
}  // namespace std

#endif  // INCDB_CORE_VALUE_H_
