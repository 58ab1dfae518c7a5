// Snapshot-versioned database (see database.h for the contract).
//
// Instances are immutable once published: every mutator builds a fresh
// Instance (sharing untouched relation states by pointer) under the writer
// mutex and publishes it with an atomic shared_ptr store; Snapshot() pins
// the latest instance with an atomic load. Version stamps come from one
// process-wide counter, so any two distinct relation states ever created
// carry distinct stamps — the invariant the result cache keys on. Each
// new state also gets a fresh key-index memo (NewEntry), so a memo only
// ever indexes the rows it was made for.

#include "core/database.h"

#include <atomic>
#include <cassert>
#include <sstream>
#include <unordered_map>

#include "core/key_index.h"

namespace incdb {

namespace {

/// Process-wide version stamp source. Starts at 1 so 0 can mean "absent"
/// (Version) and "never mutated" (Epoch).
std::atomic<uint64_t> g_next_version{1};

uint64_t NextVersion() {
  return g_next_version.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Database::Entry Database::NewEntry(std::shared_ptr<const Relation> rel) {
  auto indexes = std::make_shared<KeyIndexMemo>(*rel);
  return Entry{std::move(rel), NextVersion(), std::move(indexes)};
}

Database::Database() : inst_(std::make_shared<const Instance>()) {}

Database::Database(const Database& other) : inst_(other.LoadInstance()) {}

Database& Database::operator=(const Database& other) {
  if (this == &other) return *this;
  InstPtr snap = other.LoadInstance();
  std::lock_guard<std::mutex> lk(write_mu_);
  std::atomic_store_explicit(&inst_, std::move(snap),
                             std::memory_order_release);
  return *this;
}

Database::Database(Database&& other) noexcept : inst_(std::move(other.inst_)) {
  // Moved-from databases must stay valid (empty): tests and callers reuse
  // them after std::move.
  other.inst_ = std::make_shared<const Instance>();
}

Database& Database::operator=(Database&& other) noexcept {
  if (this == &other) return *this;
  inst_ = std::move(other.inst_);
  other.inst_ = std::make_shared<const Instance>();
  return *this;
}

Database::InstPtr Database::LoadInstance() const {
  return std::atomic_load_explicit(&inst_, std::memory_order_acquire);
}

void Database::PublishEdit(const std::function<void(Instance&)>& edit) {
  std::lock_guard<std::mutex> lk(write_mu_);
  auto next = std::make_shared<Instance>(*inst_);  // shares relation states
  edit(*next);
  std::atomic_store_explicit(&inst_, InstPtr(std::move(next)),
                             std::memory_order_release);
}

void Database::Put(const std::string& name, Relation rel) {
  auto shared = std::make_shared<const Relation>(std::move(rel));
  PublishEdit([&](Instance& next) {
    Entry& e = next.rels[name];
    e = NewEntry(std::move(shared));
    next.epoch = e.version;
  });
}

Status Database::Drop(const std::string& name) {
  bool found = false;
  PublishEdit([&](Instance& next) {
    auto it = next.rels.find(name);
    if (it == next.rels.end()) return;
    found = true;
    next.rels.erase(it);
    next.epoch = NextVersion();
  });
  if (!found) return Status::NotFound("no relation named " + name);
  return Status::OK();
}

bool Database::Has(const std::string& name) const {
  return inst_->rels.count(name) > 0;
}

StatusOr<Relation> Database::Get(const std::string& name) const {
  auto it = inst_->rels.find(name);
  if (it == inst_->rels.end()) {
    return Status::NotFound("no relation named " + name);
  }
  return *it->second.rel;
}

const Relation* Database::Find(const std::string& name) const {
  auto it = inst_->rels.find(name);
  return it == inst_->rels.end() ? nullptr : it->second.rel.get();
}

const Relation& Database::at(const std::string& name) const {
  auto it = inst_->rels.find(name);
  assert(it != inst_->rels.end());
  return *it->second.rel;
}

KeyIndexMemo* Database::KeyIndexes(const std::string& name) const {
  auto it = inst_->rels.find(name);
  return it == inst_->rels.end() ? nullptr : it->second.indexes.get();
}

Relation* Database::mutable_at(const std::string& name) {
  // Detach a private copy of the relation state so snapshots pinned before
  // this call keep the old rows, then publish an instance pointing at the
  // (caller-mutable) copy. Single-threaded by contract: the caller writes
  // through the returned pointer after publication, so the state gets no
  // key-index memo.
  auto it = inst_->rels.find(name);
  assert(it != inst_->rels.end());
  auto detached = std::make_shared<Relation>(*it->second.rel);
  Relation* raw = detached.get();
  PublishEdit([&](Instance& next) {
    uint64_t v = NextVersion();
    next.rels[name] = Entry{std::move(detached), v, nullptr};
    next.epoch = v;
  });
  return raw;
}

std::vector<std::string> Database::RelationNames() const {
  std::vector<std::string> out;
  out.reserve(inst_->rels.size());
  for (const auto& [name, e] : inst_->rels) out.push_back(name);
  return out;
}

// --- Snapshots + transactions ------------------------------------------------

Database Database::Snapshot() const { return Database(LoadInstance()); }

uint64_t Database::Version(const std::string& name) const {
  auto it = inst_->rels.find(name);
  return it == inst_->rels.end() ? 0 : it->second.version;
}

uint64_t Database::Epoch() const { return inst_->epoch; }

void Database::Txn::Put(const std::string& name, Relation rel) {
  staged_[name] = std::move(rel);
  deltas_[name] = std::nullopt;  // wholesale replacement: no recorded delta
}

Status Database::Txn::Drop(const std::string& name) {
  if (Find(name) == nullptr) {
    return Status::NotFound("no relation named " + name);
  }
  staged_[name] = std::nullopt;
  deltas_[name] = std::nullopt;
  return Status::OK();
}

Relation* Database::Txn::Mutable(const std::string& name) {
  auto it = staged_.find(name);
  if (it != staged_.end()) {
    if (!it->second.has_value()) return nullptr;
    deltas_[name] = std::nullopt;  // arbitrary edits: recording is off
    return &*it->second;
  }
  const Relation* base = Find(name);
  if (base == nullptr) return nullptr;
  auto ins = staged_.emplace(name, *base).first;  // copy-on-first-touch
  deltas_[name] = std::nullopt;
  return &*ins->second;
}

Status Database::Txn::Insert(const std::string& name, const Tuple& t,
                             uint64_t count) {
  if (count == 0) {
    return Find(name) != nullptr
               ? Status::OK()
               : Status::NotFound("no relation named " + name);
  }
  auto it = staged_.find(name);
  Relation* r = nullptr;
  if (it != staged_.end()) {
    if (!it->second.has_value()) {
      return Status::NotFound("no relation named " + name);
    }
    r = &*it->second;
  } else {
    auto bit = base_->rels.find(name);
    if (bit == base_->rels.end()) {
      return Status::NotFound("no relation named " + name);
    }
    r = &*staged_.emplace(name, *bit->second.rel).first->second;
    deltas_.emplace(
        name, RelationDelta{Relation(r->attrs()), Relation(r->attrs())});
  }
  Status st = r->Insert(t, count);
  if (!st.ok()) return st;
  auto dit = deltas_.find(name);
  if (dit != deltas_.end() && dit->second.has_value()) {
    // Net against recorded removals first so plus/minus stay disjoint.
    RelationDelta& d = *dit->second;
    const uint64_t netted = std::min(d.minus.Count(t), count);
    if (netted > 0) {
      st = d.minus.Erase(t, netted);
      assert(st.ok());
    }
    if (count > netted) st = d.plus.Insert(t, count - netted);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

Status Database::Txn::Remove(const std::string& name, const Tuple& t,
                             uint64_t count) {
  if (count == 0) {
    return Find(name) != nullptr
               ? Status::OK()
               : Status::NotFound("no relation named " + name);
  }
  auto it = staged_.find(name);
  if (it != staged_.end()) {
    if (!it->second.has_value()) {
      return Status::NotFound("no relation named " + name);
    }
    Status st = it->second->Erase(t, count);
    if (!st.ok()) return st;
  } else {
    auto bit = base_->rels.find(name);
    if (bit == base_->rels.end()) {
      return Status::NotFound("no relation named " + name);
    }
    // Validate on the copy before staging it, so a failed Remove leaves
    // the transaction untouched (Touched() must not list it).
    Relation copy = *bit->second.rel;
    Status st = copy.Erase(t, count);
    if (!st.ok()) return st;
    const std::vector<std::string>& attrs = bit->second.rel->attrs();
    staged_.emplace(name, std::move(copy));
    deltas_.emplace(name, RelationDelta{Relation(attrs), Relation(attrs)});
  }
  auto dit = deltas_.find(name);
  if (dit != deltas_.end() && dit->second.has_value()) {
    RelationDelta& d = *dit->second;
    const uint64_t netted = std::min(d.plus.Count(t), count);
    Status st = Status::OK();
    if (netted > 0) {
      st = d.plus.Erase(t, netted);
      assert(st.ok());
    }
    if (count > netted) st = d.minus.Insert(t, count - netted);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

const Relation* Database::Txn::Find(const std::string& name) const {
  auto it = staged_.find(name);
  if (it != staged_.end()) {
    return it->second.has_value() ? &*it->second : nullptr;
  }
  auto bit = base_->rels.find(name);
  return bit == base_->rels.end() ? nullptr : bit->second.rel.get();
}

std::vector<std::string> Database::Txn::Touched() const {
  std::vector<std::string> out;
  out.reserve(staged_.size());
  for (const auto& [name, rel] : staged_) out.push_back(name);
  return out;
}

Database::Txn Database::Begin() const { return Txn(LoadInstance()); }

Status Database::Commit(Txn&& txn) { return Commit(std::move(txn), nullptr); }

namespace {

/// Bag diff of two same-schema relation states: plus = rows gained, minus
/// = rows lost. nullopt when the schemas differ (not delta-expressible).
std::optional<RelationDelta> DiffRelations(const Relation& oldr,
                                           const Relation& newr) {
  if (oldr.attrs() != newr.attrs()) return std::nullopt;
  RelationDelta d{Relation(newr.attrs()), Relation(newr.attrs())};
  for (const auto& [t, c] : newr.rows()) {
    const uint64_t oc = oldr.Count(t);
    if (c > oc) {
      Status st = d.plus.InsertUnique(t, c - oc);
      assert(st.ok());
      (void)st;
    }
  }
  for (const auto& [t, c] : oldr.rows()) {
    const uint64_t nc = newr.Count(t);
    if (c > nc) {
      Status st = d.minus.InsertUnique(t, c - nc);
      assert(st.ok());
      (void)st;
    }
  }
  return d;
}

}  // namespace

Status Database::Commit(Txn&& txn, CommitInfo* info) {
  // Holds the writer mutex directly (instead of going through PublishEdit)
  // so the delta report is computed against the authoritative pre-commit
  // instance, not a possibly stale pin.
  std::lock_guard<std::mutex> lk(write_mu_);
  InstPtr pre = std::atomic_load_explicit(&inst_, std::memory_order_acquire);
  if (info) info->deltas.clear();
  if (txn.staged_.empty()) {
    if (info) {
      info->pre = Database(pre);
      info->post = Database(pre);
    }
    return Status::OK();
  }
  auto next = std::make_shared<Instance>(*pre);  // shares relation states
  const auto version_in = [](const InstPtr& inst,
                             const std::string& name) -> uint64_t {
    auto it = inst->rels.find(name);
    return it == inst->rels.end() ? 0 : it->second.version;
  };
  for (auto& [name, rel] : txn.staged_) {
    if (info) {
      std::optional<RelationDelta> delta;
      auto pit = pre->rels.find(name);
      if (rel.has_value() && pit != pre->rels.end()) {
        auto rit = txn.deltas_.find(name);
        // A recorded delta is only valid against the base the transaction
        // staged from; a concurrent commit to the same relation since
        // Begin() (last-writer-wins) forces the full diff.
        if (rit != txn.deltas_.end() && rit->second.has_value() &&
            version_in(txn.base_, name) == version_in(pre, name)) {
          delta = std::move(rit->second);
        } else {
          delta = DiffRelations(*pit->second.rel, *rel);
        }
      }
      info->deltas[name] = std::move(delta);
    }
    if (rel.has_value()) {
      next->rels[name] =
          NewEntry(std::make_shared<const Relation>(std::move(*rel)));
    } else {
      next->rels.erase(name);
    }
  }
  next->epoch = NextVersion();
  InstPtr published(std::move(next));
  if (info) {
    info->pre = Database(pre);
    info->post = Database(published);
  }
  std::atomic_store_explicit(&inst_, std::move(published),
                             std::memory_order_release);
  return Status::OK();
}

// --- Whole-database notions --------------------------------------------------

std::set<Value> Database::Constants() const {
  std::set<Value> out;
  for (const auto& [name, rel] : relations()) {
    for (const auto& [t, c] : rel.rows()) {
      for (const Value& v : t.values()) {
        if (v.is_const()) out.insert(v);
      }
    }
  }
  return out;
}

std::set<uint64_t> Database::NullIds() const {
  std::set<uint64_t> out;
  for (const auto& [name, rel] : relations()) {
    for (const auto& [t, c] : rel.rows()) {
      for (const Value& v : t.values()) {
        if (v.is_null()) out.insert(v.null_id());
      }
    }
  }
  return out;
}

std::set<Value> Database::ActiveDomain() const {
  std::set<Value> out = Constants();
  for (uint64_t id : NullIds()) out.insert(Value::Null(id));
  return out;
}

uint64_t Database::TotalSize() const {
  uint64_t total = 0;
  for (const auto& [name, rel] : relations()) total += rel.TotalSize();
  return total;
}

Database Database::CoddifyNulls(uint64_t first_fresh_id) const {
  Database out;
  uint64_t next = first_fresh_id;
  for (const auto& [name, rel] : relations()) {
    Relation fresh(rel.attrs());
    for (const auto& [t, c] : rel.SortedRows()) {
      // Each *occurrence* of a null becomes a distinct null; a tuple with
      // multiplicity m contributes m copies each with its own nulls.
      for (uint64_t i = 0; i < c; ++i) {
        Tuple nt = t;
        for (size_t j = 0; j < nt.arity(); ++j) {
          if (nt[j].is_null()) nt[j] = Value::Null(next++);
        }
        Status st = fresh.Insert(nt);
        assert(st.ok());
        (void)st;
      }
    }
    out.Put(name, std::move(fresh));
  }
  return out;
}

std::string Database::ToString() const {
  std::ostringstream os;
  for (const auto& [name, rel] : relations()) {
    os << name << rel.ToString() << "\n";
  }
  return os.str();
}

}  // namespace incdb
