#ifndef INCDB_CORE_DATABASE_H_
#define INCDB_CORE_DATABASE_H_

/// \file database.h
/// \brief Incomplete relational instances D: named relations over
/// Const ∪ Null, with the paper's §2 notions Const(D), Null(D), dom(D) —
/// now *snapshot-versioned* for mutation-under-read safety.
///
/// **Storage model.** A Database holds an immutable *instance*: a map from
/// relation names to shared, immutable relations, each stamped with a
/// process-globally unique version. Mutation never edits a published
/// instance in place — it builds a new instance (copy-on-write at relation
/// granularity: untouched relations are shared by pointer) and publishes it
/// atomically. Two consequences the engine is built on:
///
///  * **Snapshots are O(#relations).** Snapshot() (and plain copies) share
///    every relation with the source; a snapshot pinned before a mutation
///    keeps observing the pre-mutation rows, whatever the writer does.
///  * **Version stamps identify data.** Every distinct relation *state*
///    ever produced in the process carries a distinct version stamp; equal
///    stamps imply the same shared immutable rows. The result cache
///    (eval/result_cache.h) keys on them.
///  * **Indexes live with the state.** Each relation state carries a
///    KeyIndexMemo (core/key_index.h): the key indexes queries built over
///    its rows, shared by every snapshot of the state. A Put, Drop or
///    Commit of the relation publishes a new state with an empty memo, so
///    no index is ever invalidated by hand.
///
/// **Thread-safety contract.** Snapshot(), Begin()/Commit() and the
/// single-relation mutators (Put/Drop) may race with each other on one
/// Database: writers serialise on an internal mutex and publish atomically,
/// and Snapshot() atomically pins the latest published instance. Direct
/// reads (Find/at/relations()/...) on a Database that is being concurrently
/// mutated are NOT synchronised — concurrent readers must pin a Snapshot()
/// and read that (the Session facade does exactly this). mutable_at() is a
/// single-threaded convenience and must never race with anything.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/relation.h"
#include "core/status.h"

namespace incdb {

/// \brief Row-level difference between two states of one relation.
///
/// `new_state = old_state + plus − minus` as bags: `plus` holds the inserted
/// rows with multiplicities, `minus` the deleted ones. Both carry the
/// relation's schema. Produced by Database::Commit (from Txn-recorded
/// deltas or a bag diff) and consumed by the incremental result maintenance
/// layer (eval/delta.h).
struct RelationDelta {
  Relation plus;
  Relation minus;
  bool Empty() const { return plus.Empty() && minus.Empty(); }
};

struct CommitInfo;
class KeyIndexMemo;

/// \brief An incomplete database instance.
///
/// A map from relation names to Relations. A database is *complete* iff it
/// mentions no nulls. Relation name lookup is case-sensitive.
class Database {
 private:
  /// One named relation state: shared immutable rows, the version stamp of
  /// the state and its key-index memo. Stamps come from a process-wide
  /// counter, so distinct states never collide (two entries with equal
  /// stamps share the same objects). Copying an instance copies entries,
  /// so every snapshot of a state shares its memo; each new state gets a
  /// new one (NewEntry). The state mutable_at hands out for writing has
  /// none: its rows may still change.
  struct Entry {
    std::shared_ptr<const Relation> rel;
    uint64_t version = 0;
    std::shared_ptr<KeyIndexMemo> indexes;
  };
  using RelMap = std::map<std::string, Entry>;

  /// An immutable published instance. `epoch` is the stamp of the last
  /// mutation that produced it (0 for the empty database) — it changes
  /// whenever *anything* changes, which is what whole-database consumers
  /// (Dom over the active domain) key on.
  struct Instance {
    RelMap rels;
    uint64_t epoch = 0;
  };
  using InstPtr = std::shared_ptr<const Instance>;

 public:
  Database();
  ~Database() = default;

  /// Copies share every relation with the source (copy-on-write); the copy
  /// is a pinned snapshot of `other` and safe even while `other` keeps
  /// mutating. Mutating the copy never affects the source.
  Database(const Database& other);
  Database& operator=(const Database& other);
  Database(Database&& other) noexcept;
  Database& operator=(Database&& other) noexcept;

  /// Adds (or replaces) a relation; the new state gets a fresh version.
  /// Safe against concurrent Snapshot()/Commit(); not against concurrent
  /// direct reads of this same object (pin a snapshot for those).
  void Put(const std::string& name, Relation rel);

  /// Removes a relation; OK whether or not it was present (returns
  /// NotFound when absent, with the database unchanged either way).
  Status Drop(const std::string& name);

  bool Has(const std::string& name) const;
  /// Copying lookup; prefer Find() for read-only access (Get copies the
  /// whole relation, which schema checks and scans must not pay for).
  StatusOr<Relation> Get(const std::string& name) const;
  /// Borrowed lookup: a pointer into this database's current instance, or
  /// nullptr when absent. The pointee is immutable; the pointer stays
  /// valid as long as *some* Database/snapshot still references this
  /// relation state (hold the Database, or a Snapshot(), while using it).
  const Relation* Find(const std::string& name) const;
  /// Unchecked access; aborts if absent (for internal use after validation).
  const Relation& at(const std::string& name) const;
  /// The key-index memo (core/key_index.h) of relation `name`'s current
  /// state, shared by every snapshot of that state; nullptr when absent and
  /// for a state mutable_at handed out. Valid as long as Find's pointer.
  KeyIndexMemo* KeyIndexes(const std::string& name) const;
  /// In-place mutable access: detaches a private copy of the relation (and
  /// instance) if shared, bumps its version, and returns the detached
  /// relation. Single-threaded only — the returned pointer writes through
  /// to this database's current instance, so it must not race with any
  /// other access (snapshots taken *before* the call stay unaffected).
  Relation* mutable_at(const std::string& name);

  /// \brief Iterable view of (name, relation) pairs, insertion-agnostic
  /// (map order). Keeps the underlying instance alive, so the view — and
  /// every reference obtained from it — survives later mutations of the
  /// source database. Supports `for (const auto& [name, rel] : db.relations())`.
  class RelationsView {
   public:
    class const_iterator {
     public:
      using value_type = std::pair<const std::string&, const Relation&>;
      value_type operator*() const { return {it_->first, *it_->second.rel}; }
      const_iterator& operator++() {
        ++it_;
        return *this;
      }
      bool operator!=(const const_iterator& o) const { return it_ != o.it_; }
      bool operator==(const const_iterator& o) const { return it_ == o.it_; }

     private:
      friend class RelationsView;
      explicit const_iterator(RelMap::const_iterator it) : it_(it) {}
      RelMap::const_iterator it_;
    };

    const_iterator begin() const { return const_iterator(inst_->rels.begin()); }
    const_iterator end() const { return const_iterator(inst_->rels.end()); }
    size_t size() const { return inst_->rels.size(); }
    bool empty() const { return inst_->rels.empty(); }

   private:
    friend class Database;
    explicit RelationsView(InstPtr inst) : inst_(std::move(inst)) {}
    InstPtr inst_;
  };

  RelationsView relations() const { return RelationsView(inst_); }
  std::vector<std::string> RelationNames() const;

  // --- Snapshot versioning ---------------------------------------------------

  /// A pinned, immutable copy of the current instance, safe to take while
  /// writers commit concurrently. O(#relations) pointer copies; no row is
  /// copied. The snapshot is itself a Database (reads, further snapshots
  /// and even independent mutation all work on it).
  Database Snapshot() const;

  /// Version stamp of a relation's current state (0 when absent). Equal
  /// stamps ⇒ identical data (the same shared immutable relation state).
  uint64_t Version(const std::string& name) const;

  /// Stamp of the last mutation of this database (0 for a fresh empty
  /// one). Changes on every Put/Drop/Commit/mutable_at, so it fingerprints
  /// "anything changed" for whole-database consumers (Dom).
  uint64_t Epoch() const;

  /// \brief A batched, transactional mutation staged against one pinned
  /// base snapshot.
  ///
  /// Obtained from Begin(); stage any number of Put/Drop/Mutable calls,
  /// then Database::Commit() publishes them atomically: concurrent readers
  /// holding snapshots see either none or all of the batch, never a torn
  /// prefix. Reads inside the transaction (Find/Has) see the staged state.
  class Txn {
   public:
    /// Stages adding/replacing a relation.
    void Put(const std::string& name, Relation rel);
    /// Stages removing a relation (NotFound if absent in the staged view).
    Status Drop(const std::string& name);
    /// Copy-on-first-touch mutable access to a staged relation; nullptr
    /// when absent. The copy becomes part of the staged batch. Bypasses
    /// delta recording: the relation's commit delta degrades to a full
    /// bag diff (see Deltas()).
    Relation* Mutable(const std::string& name);

    /// Stages inserting `count` occurrences of `t` into `name`, recording
    /// the row-level delta as it goes (NotFound when the relation is
    /// absent or staged dropped; arity errors pass through). Mutating a
    /// relation exclusively through Insert/Remove keeps its commit delta
    /// O(rows changed) instead of O(relation).
    Status Insert(const std::string& name, const Tuple& t, uint64_t count = 1);
    /// Stages removing `count` occurrences of `t` from `name`. NotFound /
    /// InvalidArgument when the tuple is absent or under-counted, with the
    /// staged state unchanged.
    Status Remove(const std::string& name, const Tuple& t, uint64_t count = 1);

    /// Row-level deltas recorded for the touched relations, keyed like
    /// Touched(). nullopt marks a relation touched through Put/Drop/
    /// Mutable — not delta-expressible without a full diff (Commit falls
    /// back to one when a CommitInfo is requested).
    const std::map<std::string, std::optional<RelationDelta>>& Deltas() const {
      return deltas_;
    }

    /// Staged read view: base snapshot overlaid with the staged changes.
    const Relation* Find(const std::string& name) const;
    bool Has(const std::string& name) const { return Find(name) != nullptr; }

    /// Names this transaction writes (Put/Drop/Mutable targets so far) —
    /// the result-cache invalidation hook reads this after Commit.
    std::vector<std::string> Touched() const;

   private:
    friend class Database;
    explicit Txn(InstPtr base) : base_(std::move(base)) {}
    InstPtr base_;  ///< Pinned instance the stages overlay.
    /// name → staged new state (nullopt = staged drop).
    std::map<std::string, std::optional<Relation>> staged_;
    /// name → recorded row-level delta (nullopt = unknown, full-diff only).
    std::map<std::string, std::optional<RelationDelta>> deltas_;
  };

  /// Starts a transaction against a pinned snapshot of the current state.
  /// [[nodiscard]]: a dropped Txn is a silently lost batch.
  [[nodiscard]] Txn Begin() const;

  /// Atomically publishes a transaction's staged changes on top of the
  /// *current* instance (last-writer-wins per relation against other
  /// writers; writers serialise). Every staged relation gets a fresh
  /// version stamp. Returns OK always today; a Status so conflict
  /// detection can land without an API break.
  Status Commit(Txn&& txn);

  /// Commit variant that additionally reports *what* changed: the pre- and
  /// post-commit snapshots plus per-relation row-level deltas. Deltas come
  /// from the transaction's Insert/Remove recording when valid (the base
  /// it staged from still matches the pre-commit state), else from a bag
  /// diff of old vs new rows; nullopt marks changes that are not
  /// delta-expressible (drop, schema change, relation created, or a
  /// conflicting concurrent commit). This is the input of incremental
  /// result maintenance — plain Commit skips all diff work.
  Status Commit(Txn&& txn, CommitInfo* info);

  /// Const(D): the set of constants occurring in D.
  std::set<Value> Constants() const;
  /// Null(D): ids of the nulls occurring in D.
  std::set<uint64_t> NullIds() const;
  /// dom(D) = Const(D) ∪ Null(D), as Values.
  std::set<Value> ActiveDomain() const;

  bool IsComplete() const { return NullIds().empty(); }

  /// Total number of tuple occurrences across all relations.
  uint64_t TotalSize() const;

  /// \brief Replaces each occurrence of NULL by a *fresh* marked null
  /// (the `codd` transformation of §6 "Marked nulls").
  ///
  /// Returns a copy where every occurrence of every null gets a distinct
  /// id, starting from `first_fresh_id`. The result has only Codd nulls.
  Database CoddifyNulls(uint64_t first_fresh_id = 1000000) const;

  bool operator==(const Database& other) const {
    if (inst_->rels.size() != other.inst_->rels.size()) return false;
    for (const auto& [name, e] : inst_->rels) {
      auto it = other.inst_->rels.find(name);
      if (it == other.inst_->rels.end() ||
          !e.rel->SameRows(*it->second.rel)) {
        return false;
      }
    }
    return true;
  }

  std::string ToString() const;

 private:
  explicit Database(InstPtr inst) : inst_(std::move(inst)) {}

  /// A new relation state of `rel`: a fresh version stamp and an empty
  /// key-index memo.
  static Entry NewEntry(std::shared_ptr<const Relation> rel);

  /// Atomically pins the latest published instance (safe vs writers).
  InstPtr LoadInstance() const;
  /// Serialised read-modify-publish: `edit` receives a private mutable
  /// copy of the current instance and returns the epoch stamp to publish.
  void PublishEdit(const std::function<void(Instance&)>& edit);

  mutable std::mutex write_mu_;  ///< Serialises mutators of this object.
  InstPtr inst_;                 ///< Current instance; atomic load/store.
};

/// \brief What one Commit changed: the boundary snapshots and per-relation
/// row-level deltas.
///
/// `pre` pins the instance the commit applied on top of and `post` the one
/// it published; `deltas` maps every touched name to the delta of its post
/// state against its pre state, or nullopt when the change is not
/// delta-expressible (drop, schema change, relation created by the
/// commit). The session's maintenance driver feeds this straight into
/// eval/delta.h's PropagateDelta.
struct CommitInfo {
  Database pre;
  Database post;
  std::map<std::string, std::optional<RelationDelta>> deltas;
};

}  // namespace incdb

#endif  // INCDB_CORE_DATABASE_H_
