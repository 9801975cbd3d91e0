// Per-replica versioned object store.
//
// Each server node holds a full replica (QR-DTM uses full replication).
// Every object carries the metadata Section IV of the paper prescribes:
//   * a version number, checked during (incremental) validation, and
//   * a "protected" flag: while a committing transaction holds it, reads
//     and competing protects fail until the commit completes.
// The store is sharded internally so concurrent clients contend only on
// unrelated shards, not on one global lock.
#pragma once

#include <array>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/store/key.hpp"
#include "src/store/record.hpp"

namespace acn::store {

using TxId = std::uint64_t;
constexpr TxId kNoTx = 0;

enum class ReadStatus {
  kOk,
  kMissing,    // object does not exist on this replica
  kProtected,  // a commit is in flight; caller should back off / abort
};

struct ReadResult {
  ReadStatus status = ReadStatus::kMissing;
  VersionedRecord record;
};

class VersionedStore {
 public:
  VersionedStore() = default;
  VersionedStore(const VersionedStore&) = delete;
  VersionedStore& operator=(const VersionedStore&) = delete;

  /// Unconditional install, used for initial population before traffic.
  void seed(const ObjectKey& key, Record value, Version version = 1);

  ReadResult read(const ObjectKey& key) const;

  /// Read for validation on behalf of `self`: objects protected by `self`
  /// itself (its own prepare) are readable; objects protected by another
  /// transaction report kProtected.
  ReadResult read_validating(const ObjectKey& key, TxId self) const;

  /// Current version, or nullopt when the object is absent.
  std::optional<Version> version_of(const ObjectKey& key) const;

  /// Attempt to set the protected flag on behalf of `tx`.  Fails when
  /// another transaction holds it.  Re-protecting by the same tx succeeds.
  /// A protect on a missing key creates a placeholder (version 0) so fresh
  /// inserts are also guarded through two-phase commit.
  bool try_protect(const ObjectKey& key, TxId tx);

  /// Release the flag if held by `tx` (no-op otherwise).
  void unprotect(const ObjectKey& key, TxId tx);

  /// Install `value` at `version` and release `tx`'s protection.  Versions
  /// only move forward: an older version than the replica already holds is
  /// ignored (the replica was updated by a later-intersecting quorum).
  /// Returns whether the version advanced.
  bool apply(const ObjectKey& key, const Record& value, Version version, TxId tx);

  std::size_t object_count() const;

  /// Objects currently held protected by an in-flight commit.  A clean
  /// shutdown (all transactions committed or aborted, all leases settled)
  /// leaves this at zero on every replica.
  std::size_t protected_count() const;

  /// Copy of every committed object (version-0 placeholders are skipped;
  /// protected entries report their last committed value).  Feeds the
  /// anti-entropy catch-up a rejoining replica runs against its peers.
  std::vector<std::pair<ObjectKey, VersionedRecord>> snapshot() const;

  /// Committed objects of one shard only, a consistent cut under that
  /// shard's lock.  Lets a snapshot writer walk the store shard by shard
  /// without stalling writers to the other shards.
  std::vector<std::pair<ObjectKey, VersionedRecord>> shard_snapshot(
      std::size_t shard) const;

  static constexpr std::size_t shard_count() noexcept { return kShards; }

  /// Drop every object and protection.  Models a replica losing its
  /// volatile memory in a crash; what survives comes back through
  /// recovery (durable log + snapshot) and peer catch-up.
  void clear();

 private:
  struct Entry {
    Record value;
    Version version = 0;
    TxId protected_by = kNoTx;
  };

  static constexpr std::size_t kShards = 16;

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<ObjectKey, Entry, ObjectKeyHash> map;
  };

  Shard& shard_for(const ObjectKey& key) {
    return shards_[ObjectKeyHash{}(key) % kShards];
  }
  const Shard& shard_for(const ObjectKey& key) const {
    return shards_[ObjectKeyHash{}(key) % kShards];
  }

  std::array<Shard, kShards> shards_;
};

}  // namespace acn::store
