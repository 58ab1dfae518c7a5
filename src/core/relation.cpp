#include "core/relation.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <sstream>

namespace incdb {

StatusOr<size_t> Relation::AttrIndex(const std::string& name) const {
  size_t found = attrs_.size();
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (attrs_[i] == name) {
      if (found != attrs_.size()) {
        return Status::InvalidArgument("ambiguous attribute: " + name);
      }
      found = i;
    }
  }
  if (found == attrs_.size()) {
    return Status::NotFound("no attribute named " + name);
  }
  return found;
}

namespace {

Status ArityMismatch(const Tuple& t, const char* preposition, size_t arity) {
  return Status::InvalidArgument("arity mismatch: tuple " + t.ToString() +
                                 " " + preposition + " relation of arity " +
                                 std::to_string(arity));
}

}  // namespace

Status MultiplicityOverflow(const char* site, uint64_t a, uint64_t b) {
  StatusDetail d;
  d.budget_used = a;
  d.budget_limit = UINT64_MAX;
  d.site = site;
  return Status::ResourceExhausted(
             std::string("bag multiplicity overflow at ") + site + ": " +
             std::to_string(a) + " and " + std::to_string(b) +
             " combine past 2^64-1")
      .WithDetail(std::move(d));
}

template <typename T>
Status Relation::InsertRow(T&& t, uint64_t count, bool probe) {
  if (t.arity() != attrs_.size()) return ArityMismatch(t, "into", arity());
  if (count == 0) return Status::OK();
  assert(probe || FindRow(t) == kNoRow);
  if (!index_.Fits(rows_.size() + 1)) Rehash(rows_.size() + 1);
  const size_t pos = index_.Probe(t.Hash(), [&](uint32_t r) {
    return probe && rows_[r].first == t;
  });
  uint32_t& slot = index_[pos];
  if (slot != kNoRow) {
    uint64_t& have = rows_[slot].second;
    uint64_t sum = 0;
    if (__builtin_add_overflow(have, count, &sum)) {
      return MultiplicityOverflow("relation.insert", have, count);
    }
    if (have == 1) ++multi_;
    have = sum;
    return Status::OK();
  }
  if (rows_.size() >= kNoRow) {
    StatusDetail d;
    d.budget_used = rows_.size();
    d.budget_limit = kNoRow - 1;
    d.site = "relation.insert";
    return Status::ResourceExhausted("relation exceeds 2^32-1 distinct rows")
        .WithDetail(std::move(d));
  }
  slot = static_cast<uint32_t>(rows_.size());
  rows_.emplace_back(std::forward<T>(t), count);  // carries t's cached hash
  if (count > 1) ++multi_;
  return Status::OK();
}

Status Relation::Insert(const Tuple& t, uint64_t count) {
  return InsertRow(t, count, /*probe=*/true);
}

Status Relation::Insert(Tuple&& t, uint64_t count) {
  return InsertRow(std::move(t), count, /*probe=*/true);
}

Status Relation::InsertUnique(const Tuple& t, uint64_t count) {
  return InsertRow(t, count, /*probe=*/false);
}

Status Relation::InsertUnique(Tuple&& t, uint64_t count) {
  return InsertRow(std::move(t), count, /*probe=*/false);
}

void Relation::Rehash(size_t n) {
  index_.Reset(n);
  for (uint32_t r = 0; r < rows_.size(); ++r) {
    index_.Add(rows_[r].first.Hash(), r);
  }
}

Status Relation::Erase(const Tuple& t, uint64_t count) {
  if (t.arity() != attrs_.size()) return ArityMismatch(t, "from", arity());
  if (count == 0) return Status::OK();
  const uint32_t row = FindRow(t);
  if (row == kNoRow) {
    return Status::NotFound("erase of absent tuple " + t.ToString());
  }
  if (rows_[row].second < count) {
    return Status::InvalidArgument(
        "erase of " + std::to_string(count) + " occurrences of " +
        t.ToString() + ", only " + std::to_string(rows_[row].second) +
        " present");
  }
  if (rows_[row].second > 1 && rows_[row].second - count <= 1) --multi_;
  rows_[row].second -= count;
  if (rows_[row].second > 0) return Status::OK();
  // Last occurrence gone: drop the row's index entry, then move the final
  // row into the vacated row id and re-point its entry.
  auto slot_of = [this](uint32_t r) {
    return index_.Probe(rows_[r].first.Hash(),
                        [r](uint32_t e) { return e == r; });
  };
  index_.EraseAt(slot_of(row),
                 [this](uint32_t r) { return rows_[r].first.Hash(); });
  const uint32_t last = static_cast<uint32_t>(rows_.size() - 1);
  if (row != last) {
    index_[slot_of(last)] = row;
    rows_[row] = std::move(rows_[last]);
  }
  rows_.pop_back();
  return Status::OK();
}

void Relation::Add(std::initializer_list<Value> values, uint64_t count) {
  Status st = Insert(Tuple(values), count);
  assert(st.ok());
  (void)st;
}

void Relation::Reserve(size_t n) {
  rows_.reserve(n);
  if (!index_.Fits(n)) Rehash(n);
}

uint64_t Relation::Count(const Tuple& t) const {
  uint32_t row = FindRow(t);
  return row == kNoRow ? 0 : rows_[row].second;
}

uint64_t Relation::TotalSize() const {
  uint64_t total = 0;
  for (const auto& [t, c] : rows_) {
    if (__builtin_add_overflow(total, c, &total)) return UINT64_MAX;
  }
  return total;
}

Relation Relation::ToSet() const {
  Relation out = *this;  // rows and index copy verbatim; only counts change
  out.CollapseCounts();
  return out;
}

Status Relation::RenameAttrs(std::vector<std::string> attrs) {
  if (attrs.size() != attrs_.size()) {
    return Status::InvalidArgument("rename: arity mismatch");
  }
  attrs_ = std::move(attrs);
  return Status::OK();
}

std::vector<Tuple> Relation::SortedTuples() const {
  std::vector<Tuple> out;
  out.reserve(rows_.size());
  for (const auto& [t, c] : rows_) out.push_back(t);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<Tuple, uint64_t>> Relation::SortedRows() const {
  std::vector<std::pair<Tuple, uint64_t>> out(rows_.begin(), rows_.end());
  std::sort(out.begin(), out.end());
  return out;
}

bool Relation::SameRows(const Relation& other) const {
  if (rows_.size() != other.rows_.size()) return false;
  for (const auto& [t, c] : rows_) {
    if (other.Count(t) != c) return false;
  }
  return true;
}

bool Relation::SubBagOf(const Relation& other) const {
  for (const auto& [t, c] : rows_) {
    if (other.Count(t) < c) return false;
  }
  return true;
}

std::string Relation::ToString() const {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (i > 0) os << ", ";
    os << attrs_[i];
  }
  os << ") {";
  bool first = true;
  for (const auto& [t, c] : SortedRows()) {
    os << (first ? " " : ", ") << t.ToString();
    if (c != 1) os << "×" << c;
    first = false;
  }
  os << " }";
  return os.str();
}

size_t IndexOf(const std::vector<std::string>& attrs, const std::string& name) {
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (attrs[i] == name) return i;
  }
  return attrs.size();
}

Relation RelationView::Materialize() && {
  if (owned_ && owned_.use_count() == 1) {
    Relation out = std::move(*owned_);
    if (renamed_) {
      Status st = out.RenameAttrs(std::move(*renamed_));
      assert(st.ok());  // arity was validated when the view was renamed
      (void)st;
    }
    return out;
  }
  Relation out(attrs());
  out.Reserve(rows().size());
  for (const auto& [t, c] : rows()) {
    Status st = out.InsertUnique(t, c);  // source rows are already distinct
    assert(st.ok());
    (void)st;
  }
  return out;
}

std::vector<std::string> DefaultAttrs(size_t arity, const std::string& prefix) {
  std::vector<std::string> out;
  out.reserve(arity);
  for (size_t i = 0; i < arity; ++i) out.push_back(prefix + std::to_string(i));
  return out;
}

}  // namespace incdb
