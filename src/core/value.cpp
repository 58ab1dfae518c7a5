#include "core/value.h"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstring>
#include <sstream>

namespace incdb {

namespace {
uint64_t DoubleBits(double d) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}
double BitsDouble(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}
}  // namespace

Value Value::Double(double v) {
  return Value(ValueKind::kDouble, DoubleBits(v));
}

uint64_t Value::null_id() const {
  assert(is_null());
  return bits_;
}

uint32_t Value::param_index() const {
  assert(is_param());
  return static_cast<uint32_t>(bits_);
}

double Value::as_double() const {
  assert(kind_ == ValueKind::kDouble);
  return BitsDouble(bits_);
}

const std::string& Value::as_string() const {
  assert(kind_ == ValueKind::kString);
  return StringPool::Get(static_cast<uint32_t>(bits_));
}

uint32_t Value::string_id() const {
  assert(kind_ == ValueKind::kString);
  return static_cast<uint32_t>(bits_);
}

bool Value::operator<(const Value& other) const {
  if (kind_ != other.kind_) return kind_ < other.kind_;
  switch (kind_) {
    case ValueKind::kNull:
      return bits_ < other.bits_;
    case ValueKind::kInt:
      return as_int() < other.as_int();
    case ValueKind::kDouble:
      return as_double() < other.as_double();
    case ValueKind::kString:
      // Identical ids are identical contents; otherwise order by content.
      return bits_ != other.bits_ && as_string() < other.as_string();
    case ValueKind::kParam:
      return bits_ < other.bits_;
  }
  return false;
}

std::string Value::ToString() const {
  switch (kind_) {
    case ValueKind::kNull:
      return "⊥" + std::to_string(bits_);
    case ValueKind::kInt:
      return std::to_string(as_int());
    case ValueKind::kDouble: {
      std::ostringstream os;
      os << as_double();
      return os.str();
    }
    case ValueKind::kString:
      return "'" + as_string() + "'";
    case ValueKind::kParam:
      return "?" + std::to_string(bits_);
  }
  return "?";
}

template <typename T>
StatusOr<T> ParseNumber(const std::string& text) {
  const char* first = text.data();
  const char* last = first + text.size();
  if (first != last && *first == '+') ++first;  // from_chars rejects '+'
  T value{};
  const auto [end, ec] = std::from_chars(first, last, value);
  if (ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument("numeric literal " + text +
                                   " is out of range");
  }
  if (ec != std::errc() || end != last) {
    return Status::InvalidArgument("malformed numeric literal " + text);
  }
  return value;
}

template StatusOr<int64_t> ParseNumber<int64_t>(const std::string&);
template StatusOr<uint64_t> ParseNumber<uint64_t>(const std::string&);
template StatusOr<double> ParseNumber<double>(const std::string&);

}  // namespace incdb
