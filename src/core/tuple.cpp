#include "core/tuple.h"

#include <cassert>

namespace incdb {

Tuple Tuple::Concat(const Tuple& other) const {
  std::vector<Value> out;
  out.reserve(values_.size() + other.values_.size());
  out.insert(out.end(), values_.begin(), values_.end());
  out.insert(out.end(), other.values_.begin(), other.values_.end());
  return Tuple(std::move(out));
}

Tuple Tuple::Project(const std::vector<size_t>& positions) const {
  std::vector<Value> out;
  out.reserve(positions.size());
  for (size_t p : positions) {
    assert(p < values_.size());
    out.push_back(values_[p]);
  }
  return Tuple(std::move(out));
}

void Tuple::AssignConcat(const Tuple& a, const Tuple& b) {
  assert(this != &a && this != &b);
  hash_ = kDirtyHash;
  values_.resize(a.values_.size() + b.values_.size());
  Value* out = values_.data();
  for (const Value& v : a.values_) *out++ = v;
  for (const Value& v : b.values_) *out++ = v;
}

void Tuple::AssignProject(const Tuple& src,
                          const std::vector<size_t>& positions) {
  assert(this != &src);
  hash_ = kDirtyHash;
  values_.resize(positions.size());
  Value* out = values_.data();
  for (size_t p : positions) {
    assert(p < src.values_.size());
    *out++ = src.values_[p];
  }
}

bool Tuple::AllConst() const {
  for (const Value& v : values_) {
    if (v.is_null()) return false;
  }
  return true;
}

bool Tuple::operator<(const Tuple& other) const {
  return values_ < other.values_;
}

size_t Tuple::ComputeHash() const {
  size_t h = kHashSeed;
  for (const Value& v : values_) h = HashStep(h, v);
  return h == kDirtyHash ? kHashSeed : h;  // keep the sentinel free
}

std::string Tuple::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += values_[i].ToString();
  }
  out += ")";
  return out;
}

namespace {

/// Union-find over the distinct null ids of one Unifiable() call. The ids
/// live in a small stack buffer (heap fallback for very wide tuples), are
/// looked up by linear scan — tuples are short, so this beats hashing —
/// and each class carries at most one forced constant.
struct NullClass {
  uint64_t id = 0;
  uint32_t parent = 0;
  Value constant;
  bool has_constant = false;
};

class Unifier {
 public:
  Unifier(NullClass* buf) : cls_(buf) {}

  bool Merge(const Value& a, const Value& b) {
    if (a.is_const() && b.is_const()) return a == b;
    if (a.is_null() && b.is_null()) {
      uint32_t ra = Find(Slot(a.null_id()));
      uint32_t rb = Find(Slot(b.null_id()));
      if (ra == rb) return true;
      cls_[ra].parent = rb;
      if (cls_[ra].has_constant) {
        if (cls_[rb].has_constant) {
          return cls_[rb].constant == cls_[ra].constant;
        }
        cls_[rb].constant = cls_[ra].constant;
        cls_[rb].has_constant = true;
      }
      return true;
    }
    const Value& null = a.is_null() ? a : b;
    const Value& cons = a.is_null() ? b : a;
    uint32_t root = Find(Slot(null.null_id()));
    if (cls_[root].has_constant) return cls_[root].constant == cons;
    cls_[root].constant = cons;
    cls_[root].has_constant = true;
    return true;
  }

 private:
  uint32_t Slot(uint64_t id) {
    for (uint32_t i = 0; i < n_; ++i) {
      if (cls_[i].id == id) return i;
    }
    cls_[n_] = NullClass{id, n_, Value(), false};
    return n_++;
  }

  uint32_t Find(uint32_t i) {
    while (cls_[i].parent != i) {
      cls_[i].parent = cls_[cls_[i].parent].parent;  // path halving
      i = cls_[i].parent;
    }
    return i;
  }

  NullClass* cls_;
  uint32_t n_ = 0;
};

}  // namespace

bool Unifiable(const Tuple& a, const Tuple& b) {
  const size_t n = a.arity();
  if (n != b.arity()) return false;
  // Fast pass: reject on constant clashes, find the first null (if any).
  size_t first_null = n;
  for (size_t i = 0; i < n; ++i) {
    if (a[i].is_null() || b[i].is_null()) {
      if (first_null == n) first_null = i;
    } else if (!(a[i] == b[i])) {
      return false;
    }
  }
  if (first_null == n) return true;

  constexpr size_t kInlineIds = 16;
  NullClass inline_buf[kInlineIds];
  std::vector<NullClass> heap_buf;
  NullClass* buf = inline_buf;
  if (2 * n > kInlineIds) {
    heap_buf.resize(2 * n);
    buf = heap_buf.data();
  }
  Unifier u(buf);
  for (size_t i = first_null; i < n; ++i) {
    if (!u.Merge(a[i], b[i])) return false;
  }
  return true;
}

}  // namespace incdb
