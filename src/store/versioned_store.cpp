#include "src/store/versioned_store.hpp"

namespace acn::store {

void VersionedStore::seed(const ObjectKey& key, Record value, Version version) {
  auto& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  auto& entry = shard.map[key];
  entry.value = std::move(value);
  entry.version = version;
  entry.protected_by = kNoTx;
}

ReadResult VersionedStore::read(const ObjectKey& key) const {
  const auto& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) return {ReadStatus::kMissing, {}};
  if (it->second.protected_by != kNoTx) return {ReadStatus::kProtected, {}};
  if (it->second.version == 0) return {ReadStatus::kMissing, {}};
  return {ReadStatus::kOk, {it->second.value, it->second.version}};
}

ReadResult VersionedStore::read_validating(const ObjectKey& key, TxId self) const {
  const auto& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) return {ReadStatus::kMissing, {}};
  if (it->second.protected_by != kNoTx && it->second.protected_by != self) {
    // Still expose the last committed version: a validator can refute a
    // stale check definitively even while a commit is in flight.
    return {ReadStatus::kProtected, {{}, it->second.version}};
  }
  if (it->second.version == 0) return {ReadStatus::kMissing, {}};
  return {ReadStatus::kOk, {it->second.value, it->second.version}};
}

std::optional<Version> VersionedStore::version_of(const ObjectKey& key) const {
  const auto& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.map.find(key);
  if (it == shard.map.end() || it->second.version == 0) return std::nullopt;
  return it->second.version;
}

bool VersionedStore::try_protect(const ObjectKey& key, TxId tx) {
  auto& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  auto& entry = shard.map[key];  // creates placeholder for fresh inserts
  if (entry.protected_by != kNoTx && entry.protected_by != tx) return false;
  entry.protected_by = tx;
  return true;
}

void VersionedStore::unprotect(const ObjectKey& key, TxId tx) {
  auto& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) return;
  if (it->second.protected_by == tx) it->second.protected_by = kNoTx;
  // Erase placeholders created by a protect that never committed.
  if (it->second.version == 0 && it->second.protected_by == kNoTx)
    shard.map.erase(it);
}

bool VersionedStore::apply(const ObjectKey& key, const Record& value,
                           Version version, TxId tx) {
  auto& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  auto& entry = shard.map[key];
  const bool advanced = version > entry.version;
  if (advanced) {
    entry.value = value;
    entry.version = version;
  }
  if (entry.protected_by == tx) entry.protected_by = kNoTx;
  return advanced;
}

std::size_t VersionedStore::object_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    total += shard.map.size();
  }
  return total;
}

std::size_t VersionedStore::protected_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    for (const auto& [key, entry] : shard.map)
      if (entry.protected_by != kNoTx) ++total;
  }
  return total;
}

std::vector<std::pair<ObjectKey, VersionedRecord>> VersionedStore::snapshot()
    const {
  std::vector<std::pair<ObjectKey, VersionedRecord>> out;
  out.reserve(object_count());
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    for (const auto& [key, entry] : shard.map) {
      if (entry.version == 0) continue;  // uncommitted placeholder
      out.emplace_back(key, VersionedRecord{entry.value, entry.version});
    }
  }
  return out;
}

std::vector<std::pair<ObjectKey, VersionedRecord>>
VersionedStore::shard_snapshot(std::size_t shard) const {
  std::vector<std::pair<ObjectKey, VersionedRecord>> out;
  const auto& s = shards_[shard % kShards];
  std::lock_guard lock(s.mutex);
  out.reserve(s.map.size());
  for (const auto& [key, entry] : s.map) {
    if (entry.version == 0) continue;  // uncommitted placeholder
    out.emplace_back(key, VersionedRecord{entry.value, entry.version});
  }
  return out;
}

void VersionedStore::clear() {
  for (auto& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    shard.map.clear();
  }
}

}  // namespace acn::store
