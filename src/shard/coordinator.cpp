#include "src/shard/coordinator.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace acn::shard {

CrossShardCoordinator::CrossShardCoordinator(harness::Cluster& cluster,
                                             const ShardRouter& router,
                                             int client_ordinal,
                                             std::uint64_t seed,
                                             std::string decision_log_path)
    : router_(router),
      decisions_(std::make_shared<DecisionLog>(std::move(decision_log_path))) {
  if (router_.map().n_shards() != cluster.n_groups())
    throw std::invalid_argument(
        "CrossShardCoordinator: shard map has " +
        std::to_string(router_.map().n_shards()) + " shards but cluster has " +
        std::to_string(cluster.n_groups()) + " groups");
  stubs_.reserve(cluster.n_groups());
  for (std::size_t g = 0; g < cluster.n_groups(); ++g)
    stubs_.push_back(cluster.make_group_stub(g, client_ordinal, seed));
  // TxIds must be globally unique: servers key their lease / presumed-abort
  // / idempotency memories by TxId.  High tag keeps coordinator ids out of
  // the executor's small-integer range; the ordinal keeps coordinators out
  // of each other's.
  tx_base_ = (0x5AADULL << 44) |
             ((static_cast<std::uint64_t>(client_ordinal) & 0xFFFF) << 28);
  // Serve decision records at the coordinator's own network identity.  The
  // handler owns the log by shared_ptr: the records outlive this object,
  // and the only way to make them unreachable is to take the NODE down —
  // which is exactly how chaos crashes a coordinator.
  client_node_ =
      static_cast<net::NodeId>(cluster.size()) + client_ordinal;
  const std::shared_ptr<DecisionLog> log = decisions_;
  cluster.transport().register_local(
      client_node_, [log](net::NodeId, const dtm::Request& request) {
        dtm::Response response;
        if (const auto* query =
                std::get_if<dtm::DecisionQuery>(&request.payload))
          response.payload = log->answer(*query);
        return response;
      });
}

ShardTx CrossShardCoordinator::begin(const KeyFootprint& predicted) {
  const dtm::TxId tx =
      tx_base_ | (tx_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
  return ShardTx(this, tx, router_.plan(predicted));
}

std::uint32_t ShardTx::serving_group(const store::ObjectKey& key) const {
  if (const auto it = read_groups_.find(key); it != read_groups_.end())
    return it->second;
  const ShardMap& map = owner_->router_.map();
  // Replicated classes live on every group: serve them from the home group
  // the transaction talks to anyway, so the read never adds a participant.
  if (map.replicated(key.cls)) return predicted_.home();
  return map.shard_of(key);
}

std::vector<dtm::VersionCheck> ShardTx::group_checks(
    std::uint32_t group) const {
  std::vector<dtm::VersionCheck> checks;
  for (const auto& [key, rec] : reads_)
    if (serving_group(key) == group) checks.push_back({key, rec.version});
  return checks;
}

store::Record ShardTx::read(const store::ObjectKey& key) {
  if (state_ != State::kActive)
    throw std::logic_error("ShardTx::read on a finished transaction");
  if (const auto wit = writes_.find(key); wit != writes_.end())
    return wit->second;
  if (const auto rit = reads_.find(key); rit != reads_.end())
    return rit->second.value;
  const std::uint32_t group = serving_group(key);
  // Incremental validation within the serving group: every prior read on
  // this group rides along, so a stale snapshot dies at read time, not at
  // prepare.  Reads on OTHER groups cannot be checked here (this group
  // does not hold their keys); prepare/validate covers them per group.
  const auto outcome =
      owner_->stub(group).read(tx_, key, group_checks(group));
  reads_.emplace(key, outcome.record);
  read_groups_.emplace(key, group);
  return outcome.record.value;
}

void ShardTx::write(const store::ObjectKey& key, store::Record value) {
  if (state_ != State::kActive)
    throw std::logic_error("ShardTx::write on a finished transaction");
  if (owner_->router_.map().replicated(key.cls))
    throw std::logic_error("ShardTx::write to replicated class " +
                           std::to_string(key.cls) + " (" +
                           store::to_string(key) + ")");
  writes_[key] = std::move(value);
}

std::vector<std::pair<store::ObjectKey, store::VersionedRecord>>
ShardTx::read_many(const std::vector<store::ObjectKey>& keys,
                   const std::vector<store::ObjectKey>&) {
  for (const auto& key : keys) read(key);
  return {};
}

bool ShardTx::adopt_read(const store::ObjectKey& key,
                         const store::VersionedRecord& record) {
  if (writes_.count(key) != 0 || reads_.count(key) != 0) return false;
  reads_.emplace(key, record);
  read_groups_.emplace(key, serving_group(key));
  return true;
}

void ShardTx::begin_nested() {
  if (frame_)
    throw std::logic_error(
        "ShardTx::begin_nested: only one level of nesting is supported");
  frame_ = buffered();
}

void ShardTx::commit_nested() {
  if (!frame_)
    throw std::logic_error("ShardTx::commit_nested without begin_nested");
  frame_.reset();
}

void ShardTx::abort_nested() {
  if (!frame_)
    throw std::logic_error("ShardTx::abort_nested without begin_nested");
  restore(std::move(*frame_));
  frame_.reset();
}

nesting::AbortScope ShardTx::classify(const dtm::TxAbort& abort) const {
  if (!frame_) return nesting::AbortScope::kFull;
  for (const auto& key : abort.invalid())
    if (frame_->reads.count(key) != 0) return nesting::AbortScope::kFull;
  return nesting::AbortScope::kPartial;
}

void ShardTx::checkpoint() { checkpoints_.push_back(buffered()); }

bool ShardTx::restore_checkpoint(std::size_t index) {
  if (state_ != State::kActive) return false;
  restore(std::move(checkpoints_.at(index)));
  checkpoints_.resize(index);
  return true;
}

void ShardTx::restore(Checkpoint checkpoint) {
  if (state_ != State::kActive)
    throw std::logic_error("ShardTx::restore on a finished transaction");
  reads_ = std::move(checkpoint.reads);
  read_groups_ = std::move(checkpoint.read_groups);
  writes_ = std::move(checkpoint.writes);
}

std::size_t ShardTx::prepare_all() {
  if (state_ != State::kActive)
    throw std::logic_error("ShardTx::prepare_all: not active");

  // The authoritative participant set: the keys actually touched.  A
  // mispredicted footprint escalates here — the transaction may have been
  // *planned* single-shard, but it commits on the groups it really spans.
  std::vector<store::ObjectKey> touched;
  touched.reserve(reads_.size() + writes_.size());
  for (const auto& [key, rec] : reads_) touched.push_back(key);
  for (const auto& [key, value] : writes_) touched.push_back(key);
  plan_ = owner_->router_.reclassify(predicted_, touched);

  // Replicated-class reads were served by the home group; that group must
  // participate (validate) even when no owned key pinned it to the plan.
  for (const auto& [key, group] : read_groups_) {
    if (std::binary_search(plan_.groups.begin(), plan_.groups.end(), group))
      continue;
    plan_.groups.insert(
        std::upper_bound(plan_.groups.begin(), plan_.groups.end(), group),
        group);
  }
  // Write-participant groups, sorted: more than one makes this transaction
  // subject to decision records and in-doubt parking, and every prepare
  // must carry the full set so any single group can find its siblings.
  cross_groups_.clear();
  for (const auto& [key, value] : writes_) {
    const std::uint32_t group = serving_group(key);
    const auto at =
        std::lower_bound(cross_groups_.begin(), cross_groups_.end(), group);
    if (at == cross_groups_.end() || *at != group)
      cross_groups_.insert(at, group);
  }

  try {
    // Ascending group order (plan_.groups is sorted): deterministic across
    // coordinators, so two cross-shard transactions always claim groups in
    // the same order and cannot hold-and-wait on each other in reverse.
    for (const std::uint32_t group : plan_.groups) {
      std::vector<store::ObjectKey> write_keys;   // std::map iterates sorted
      std::vector<store::Record> values;
      std::vector<store::Version> read_versions;
      for (const auto& [key, value] : writes_) {
        if (serving_group(key) != group) continue;
        write_keys.push_back(key);
        values.push_back(value);
        const auto rit = reads_.find(key);
        read_versions.push_back(rit != reads_.end() ? rit->second.version : 0);
      }
      const auto checks = group_checks(group);
      if (write_keys.empty()) {
        // Read-only participant: nothing to protect, but the snapshot this
        // transaction read from the group must still be current at commit.
        owner_->stub(group).validate(tx_, checks);
        continue;
      }
      dtm::PrepareExtras extras;
      if (cross_groups_.size() > 1) {
        extras.participants = cross_groups_;
        extras.coordinator = owner_->client_node_;
        extras.values = values;
      }
      PreparedGroup prepared;
      prepared.group = group;
      prepared.ticket = owner_->stub(group).prepare(tx_, checks, write_keys,
                                                    read_versions, extras);
      prepared.values = std::move(values);
      prepared_.push_back(std::move(prepared));
    }
  } catch (...) {
    // One group refused (conflict, busy, unreachable): release every
    // ticket already acquired so the other groups go free immediately
    // instead of waiting out their leases.
    abort_prepared();
    throw;
  }
  state_ = State::kPrepared;
  return prepared_.size();
}

std::vector<std::pair<store::ObjectKey, store::Version>>
ShardTx::prepared_writes() const {
  std::vector<std::pair<store::ObjectKey, store::Version>> writes;
  for (const PreparedGroup& p : prepared_)
    for (std::size_t k = 0; k < p.ticket.keys.size(); ++k)
      writes.push_back({p.ticket.keys[k], p.ticket.new_versions[k]});
  return writes;
}

void ShardTx::commit_prepared() {
  if (state_ != State::kPrepared)
    throw std::logic_error("ShardTx::commit_prepared: nothing prepared");

  // Durable decision record BEFORE the first phase-two message (multi-group
  // only: a single prepared group installs or expires atomically on its
  // own).  From this point the transaction's outcome is commit no matter
  // what happens to this coordinator — an unreachable group becomes an
  // in-doubt handoff, never a reason to abort.
  const bool multi_group = prepared_.size() > 1;
  const auto installs = prepared_writes();
  if (multi_group) {
    std::vector<dtm::CommitRequest> pushes;
    pushes.reserve(prepared_.size());
    for (const PreparedGroup& p : prepared_)
      pushes.push_back(
          {tx_, p.ticket.keys, p.values, p.ticket.new_versions, p.group});
    if (!owner_->decisions_->record_commit(tx_, std::move(pushes))) {
      // The outcome was already sealed as abort — this coordinator served
      // presumed abort to a querier (its leases were resolved away while it
      // dawdled) or recorded an abort itself.  Deciding commit now would
      // contradict an answer someone may have acted on, so the transaction
      // aborts instead: release whatever the servers still hold.
      std::vector<store::ObjectKey> keys;
      for (const auto& [key, version] : installs) keys.push_back(key);
      for (const PreparedGroup& prepared : prepared_)
        owner_->stub(prepared.group).abort(prepared.ticket);
      prepared_.clear();
      state_ = State::kFinished;
      owner_->stats_.aborts.fetch_add(1, std::memory_order_relaxed);
      throw dtm::TxAbort(dtm::AbortKind::kBusy, std::move(keys),
                         dtm::AbortDetail::kLeaseExpired);
    }
    // The decision IS commit from here on, whatever happens to the pushes —
    // log the intent now so the atomicity checker holds the cluster to it.
    if (owner_->cross_log_ != nullptr)
      owner_->cross_log_->record({tx_, installs, true});
  }

  std::exception_ptr failure;
  std::size_t installed = 0;
  for (std::size_t i = 0; i < prepared_.size(); ++i) {
    try {
      owner_->stub(prepared_[i].group)
          .commit(prepared_[i].ticket, prepared_[i].values);
      ++installed;
    } catch (const dtm::TxAbort& abort) {
      if (multi_group && abort.detail() != dtm::AbortDetail::kLeaseExpired) {
        // Unreachable after bounded retries, with the commit decision
        // already durable: hand the push to cooperative termination.  The
        // group's prepare parks in-doubt when its lease runs out and the
        // resolver installs from the decision record (or a sibling's
        // verdict), so the transaction still counts as committed.
        owner_->stats_.indoubt_handoffs.fetch_add(1,
                                                  std::memory_order_relaxed);
        ++installed;
        continue;
      }
      failure = std::current_exception();
      if (multi_group) {
        // kExpired refusal after the decision was recorded: the group was
        // explicitly aborted out from under a committed transaction.  Push
        // the remaining groups forward (the decision stands) and count the
        // breach — the gates assert this never happens.
        owner_->stats_.atomicity_breaches.fetch_add(1,
                                                    std::memory_order_relaxed);
        continue;
      }
      // Single prepared group: nothing installed anywhere else, so the
      // abort is still atomic — release any remaining tickets and surface.
      if (installed == 0) {
        for (std::size_t j = i + 1; j < prepared_.size(); ++j)
          owner_->stub(prepared_[j].group).abort(prepared_[j].ticket);
        break;
      }
    } catch (...) {
      failure = std::current_exception();
      if (installed == 0 && !multi_group) {
        for (std::size_t j = i + 1; j < prepared_.size(); ++j)
          owner_->stub(prepared_[j].group).abort(prepared_[j].ticket);
        break;
      }
    }
  }
  prepared_.clear();
  state_ = State::kFinished;
  if (failure) {
    owner_->stats_.aborts.fetch_add(1, std::memory_order_relaxed);
    std::rethrow_exception(failure);
  }

  if (owner_->history_ != nullptr) {
    nesting::CommittedTxn entry;
    entry.tx = tx_;
    for (const auto& [key, rec] : reads_)
      entry.reads.push_back({key, rec.version});
    entry.writes = installs;
    owner_->history_->record(std::move(entry));
  }

  owner_->router_.note_commit(plan_);
  if (plan_.single_shard())
    owner_->stats_.single_shard_commits.fetch_add(1,
                                                  std::memory_order_relaxed);
  else
    owner_->stats_.cross_shard_commits.fetch_add(1, std::memory_order_relaxed);
}

void ShardTx::abort_prepared() {
  // A cross-shard abort is recorded too: an in-doubt participant that asks
  // the (live) coordinator gets an authoritative kAborted instead of
  // waiting out the kUnknown-presumed-abort inference.  The cross-shard
  // log deliberately gets NO entry for aborts: releasing the tickets lets
  // rival transactions reuse the proposed version numbers, so (key,
  // version) stops naming this transaction's writes and the atomicity
  // checker could not tell a leaked install from an honest rival.  Commit
  // entries have no such ambiguity — their versions are installed or held
  // under protection until termination installs them.
  if (cross_groups_.size() > 1 && !prepared_.empty())
    owner_->decisions_->record_abort(tx_);
  for (const PreparedGroup& prepared : prepared_)
    owner_->stub(prepared.group).abort(prepared.ticket);
  prepared_.clear();
}

void ShardTx::commit() {
  try {
    prepare_all();
  } catch (...) {
    state_ = State::kFinished;
    owner_->stats_.aborts.fetch_add(1, std::memory_order_relaxed);
    throw;
  }
  commit_prepared();
}

void ShardTx::abort() {
  if (state_ == State::kFinished) return;
  abort_prepared();
  state_ = State::kFinished;
  owner_->stats_.aborts.fetch_add(1, std::memory_order_relaxed);
}

void seed_sharded(harness::Cluster& cluster, const ShardMap& map,
                  const store::ObjectKey& key, const store::Record& value) {
  // Mode-agnostic: the cluster seeds in-process stores directly (sim) or
  // buffers control-plane batches (TCP — cluster.flush_seeds() ships them).
  if (map.replicated(key.cls)) {
    cluster.seed_object(key, value);
    return;
  }
  cluster.seed_object(key, value, map.shard_of(key));
}

store::VersionedRecord latest_sharded(harness::Cluster& cluster,
                                      const ShardMap& map,
                                      const store::ObjectKey& key) {
  store::VersionedRecord best;
  bool found = false;
  const auto replicas = map.replicated(key.cls)
                            ? cluster.servers()
                            : cluster.group_servers(map.shard_of(key));
  for (dtm::Server* server : replicas) {
    const auto result = server->store().read(key);
    if (result.status != store::ReadStatus::kOk) continue;
    if (!found || result.record.version > best.version) {
      best = result.record;
      found = true;
    }
  }
  if (!found)
    throw std::runtime_error("latest_sharded: no replica of group " +
                             std::to_string(map.shard_of(key)) + " holds " +
                             store::to_string(key));
  return best;
}

}  // namespace acn::shard
