#include "src/shard/coordinator.hpp"

#include <algorithm>
#include <exception>
#include <iterator>
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
  cluster.transport().register_node(
      client_node_, [log](net::NodeId, const dtm::Request& request) {
        dtm::Response response;
        if (const auto* query =
                std::get_if<dtm::DecisionQuery>(&request.payload))
          response.payload = log->answer(*query);
        return response;
      });
}

ShardTx CrossShardCoordinator::begin(const KeyFootprint& predicted,
                                     const acn::ExecutorConfig* config) {
  const dtm::TxId tx =
      tx_base_ | (tx_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
  return ShardTx(this, tx, router_.plan(predicted), config);
}

void CrossShardCoordinator::note_commit(const RoutePlan& predicted,
                                        const RoutePlan& committed) {
  (committed.single_shard() ? stats_.single_shard_commits
                            : stats_.cross_shard_commits)
      .fetch_add(1, std::memory_order_relaxed);
  router_.count_misprediction(predicted, committed);
  last_commit_ = {predicted.single_shard(), committed.single_shard()};
}

namespace {

bool touched(const nesting::Transaction& txn) {
  return txn.read_set_size() + txn.write_set_size() > 0;
}

}  // namespace

std::uint32_t ShardTx::serving_group(const store::ObjectKey& key) const {
  const ShardMap& map = owner_->router_.map();
  // Replicated classes live on every group: serve them from the home group
  // the transaction talks to anyway, so the read never adds a participant.
  if (map.replicated(key.cls)) return predicted_.home();
  return map.shard_of(key);
}

nesting::Transaction& ShardTx::group_tx(std::uint32_t group) {
  if (state_ != State::kActive)
    throw std::logic_error("ShardTx: access to a finished transaction");
  const auto [it, opened] =
      groups_.try_emplace(group, owner_->stub(group), tx_);
  nesting::Transaction& txn = it->second;
  if (opened) {
    // Join the handle where it stands: the checkpoints taken so far (this
    // group was untouched at each) and the open Block frame.
    if (config_ != nullptr) acn::arm_transaction(txn, *config_);
    for (std::size_t i = 0; i < checkpoint_count_; ++i) txn.checkpoint();
    for (std::size_t d = 1; d < depth_; ++d) txn.begin_nested();
  }
  return txn;
}

nesting::Transaction& ShardTx::write_tx(const store::ObjectKey& key) {
  if (owner_->router_.map().replicated(key.cls))
    throw std::logic_error("ShardTx: write to replicated class " +
                           std::to_string(key.cls) + " (" +
                           store::to_string(key) + ")");
  return group_tx(serving_group(key));
}

store::Record ShardTx::read(const store::ObjectKey& key) {
  return group_tx(serving_group(key)).read(key);
}

void ShardTx::write(const store::ObjectKey& key, store::Record value) {
  write_tx(key).write(key, std::move(value));
}

void ShardTx::insert(const store::ObjectKey& key, store::Record value) {
  write_tx(key).insert(key, std::move(value));
}

std::vector<std::pair<store::ObjectKey, store::VersionedRecord>>
ShardTx::read_many(const std::vector<store::ObjectKey>& keys,
                   const std::vector<store::ObjectKey>& speculative) {
  if (keys.empty() && speculative.empty()) return {};
  // The common case, every key on one group, needs no split.
  const std::uint32_t first =
      serving_group(keys.empty() ? speculative.front() : keys.front());
  const auto on_first = [&](const store::ObjectKey& key) {
    return serving_group(key) == first;
  };
  if (std::all_of(keys.begin(), keys.end(), on_first) &&
      std::all_of(speculative.begin(), speculative.end(), on_first))
    return group_tx(first).read_many(keys, speculative);

  std::map<std::uint32_t, std::pair<std::vector<store::ObjectKey>,
                                    std::vector<store::ObjectKey>>>
      by_group;
  for (const store::ObjectKey& key : keys)
    by_group[serving_group(key)].first.push_back(key);
  for (const store::ObjectKey& key : speculative)
    by_group[serving_group(key)].second.push_back(key);
  std::vector<std::pair<store::ObjectKey, store::VersionedRecord>> spec;
  for (const auto& [group, lists] : by_group) {
    auto records = group_tx(group).read_many(lists.first, lists.second);
    spec.insert(spec.end(), std::make_move_iterator(records.begin()),
                std::make_move_iterator(records.end()));
  }
  return spec;
}

bool ShardTx::adopt_read(const store::ObjectKey& key,
                         const store::VersionedRecord& record) {
  return group_tx(serving_group(key)).adopt_read(key, record);
}

void ShardTx::begin_nested() {
  if (depth_ >= 2)
    throw std::logic_error(
        "ShardTx::begin_nested: only one level of nesting is supported");
  for (auto& [group, txn] : groups_) txn.begin_nested();
  ++depth_;
}

void ShardTx::commit_nested() {
  if (depth_ < 2)
    throw std::logic_error("ShardTx::commit_nested without begin_nested");
  for (auto& [group, txn] : groups_) txn.commit_nested();
  --depth_;
}

void ShardTx::abort_nested() {
  if (depth_ < 2)
    throw std::logic_error("ShardTx::abort_nested without begin_nested");
  for (auto& [group, txn] : groups_) txn.abort_nested();
  --depth_;
}

nesting::AbortScope ShardTx::classify(const dtm::TxAbort& abort) const {
  nesting::AbortScope scope = depth_ < 2 ? nesting::AbortScope::kFull
                                         : nesting::AbortScope::kPartial;
  for (const auto& [group, txn] : groups_)
    if (txn.scope_of(abort) == nesting::AbortScope::kFull)
      scope = nesting::AbortScope::kFull;
  return nesting::count_classification(config_ ? config_->obs : nullptr,
                                       scope);
}

void ShardTx::checkpoint() {
  for (auto& [group, txn] : groups_) txn.checkpoint();
  ++checkpoint_count_;
}

bool ShardTx::restore_checkpoint(std::size_t index) {
  if (state_ != State::kActive) return false;
  for (auto& [group, txn] : groups_) txn.restore_checkpoint(index);
  checkpoint_count_ = index;
  return true;
}

std::size_t ShardTx::prepare_all() {
  if (state_ != State::kActive)
    throw std::logic_error("ShardTx::prepare_all: not active");

  // Reclassify by the groups actually touched: a mispredicted footprint
  // escalates here — the transaction may have been *planned* single-shard,
  // but it commits on the groups it really spans.  A group opened by a
  // Block or checkpoint that was rolled back holds nothing and stays out.
  plan_.groups.clear();
  cross_groups_.clear();
  for (const auto& [group, txn] : groups_) {
    if (!touched(txn)) continue;
    plan_.groups.push_back(group);
    // More than one write group makes this transaction subject to decision
    // records and in-doubt parking, and every prepare must carry the full
    // set so any single group can find its siblings.
    if (txn.write_set_size() > 0) cross_groups_.push_back(group);
  }
  if (plan_.groups.empty()) plan_.groups.push_back(predicted_.home());
  const std::vector<std::uint32_t> no_participants;
  const std::vector<std::uint32_t>& participants =
      cross_groups_.size() > 1 ? cross_groups_ : no_participants;

  std::size_t held = 0;
  try {
    // Ascending group order (groups_ is sorted): deterministic across
    // coordinators, so two cross-shard transactions always claim groups in
    // the same order and cannot hold-and-wait on each other in reverse.
    // Read-only groups run their final validation round instead.
    for (auto& [group, txn] : groups_) {
      if (!touched(txn)) continue;
      txn.prepare(participants, owner_->client_node_);
      if (txn.ticket() != nullptr) ++held;
    }
  } catch (...) {
    // One group refused (conflict, busy, unreachable): release every
    // ticket already acquired so the other groups go free immediately
    // instead of waiting out their leases.
    abort_prepared();
    throw;
  }
  state_ = State::kPrepared;
  return held;
}

std::vector<std::pair<store::ObjectKey, store::Version>>
ShardTx::prepared_writes() const {
  std::vector<std::pair<store::ObjectKey, store::Version>> writes;
  for (const auto& [group, txn] : groups_)
    if (const dtm::PrepareTicket* ticket = txn.ticket())
      for (std::size_t k = 0; k < ticket->keys.size(); ++k)
        writes.push_back({ticket->keys[k], ticket->new_versions[k]});
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
  const bool multi_group = cross_groups_.size() > 1;
  std::vector<std::pair<store::ObjectKey, store::Version>> installs;
  if (multi_group || owner_->history_ != nullptr) installs = prepared_writes();
  if (multi_group) {
    std::vector<dtm::CommitRequest> pushes;
    pushes.reserve(cross_groups_.size());
    for (const auto& [group, txn] : groups_)
      if (const dtm::PrepareTicket* ticket = txn.ticket())
        pushes.push_back({tx_, ticket->keys, txn.prepared_values(),
                          ticket->new_versions, group});
    if (!owner_->decisions_->record_commit(tx_, std::move(pushes))) {
      // The outcome was already sealed as abort — this coordinator served
      // presumed abort to a querier (its leases were resolved away while it
      // dawdled) or recorded an abort itself.  Deciding commit now would
      // contradict an answer someone may have acted on, so the transaction
      // aborts instead: release whatever the servers still hold.
      std::vector<store::ObjectKey> keys;
      for (const auto& [key, version] : installs) keys.push_back(key);
      for (auto& [group, txn] : groups_) txn.abort_prepared();
      fail_commit();
      throw dtm::TxAbort(dtm::AbortKind::kBusy, std::move(keys),
                         dtm::AbortDetail::kLeaseExpired);
    }
    // The decision IS commit from here on, whatever happens to the pushes —
    // log the intent now so the atomicity checker holds the cluster to it.
    if (owner_->cross_log_ != nullptr)
      owner_->cross_log_->record({tx_, installs, true});
  }

  std::exception_ptr failure;
  for (auto& [group, txn] : groups_) {
    if (txn.ticket() == nullptr) continue;
    try {
      txn.commit_prepared();
    } catch (const dtm::TxAbort& abort) {
      if (multi_group && abort.detail() != dtm::AbortDetail::kLeaseExpired) {
        // Unreachable after bounded retries, with the commit decision
        // already durable: hand the push to cooperative termination.  The
        // group's prepare parks in-doubt when its lease runs out and the
        // resolver installs from the decision record (or a sibling's
        // verdict), so the transaction still counts as committed.
        owner_->stats_.indoubt_handoffs.fetch_add(1,
                                                  std::memory_order_relaxed);
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
      // abort is still atomic — surface it.
      break;
    } catch (...) {
      failure = std::current_exception();
      if (!multi_group) break;
    }
  }
  if (failure) {
    fail_commit();
    std::rethrow_exception(failure);
  }
  state_ = State::kFinished;

  if (owner_->history_ != nullptr) {
    nesting::CommittedTxn entry;
    entry.tx = tx_;
    for (const auto& [group, txn] : groups_)
      for (const dtm::VersionCheck& read : txn.all_version_checks())
        entry.reads.push_back({read.key, read.version});
    entry.writes = installs;
    owner_->history_->record(std::move(entry));
  }
  owner_->note_commit(predicted_, plan_);
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
  const bool holds_tickets =
      std::any_of(groups_.begin(), groups_.end(), [](const auto& entry) {
        return entry.second.ticket() != nullptr;
      });
  if (cross_groups_.size() > 1 && holds_tickets)
    owner_->decisions_->record_abort(tx_);
  for (auto& [group, txn] : groups_) txn.abort_prepared();
}

void ShardTx::commit() {
  obs::Tracer::Span commit_span;
  if (config_ != nullptr && config_->obs != nullptr)
    commit_span.restart(&config_->obs->tracer, "tx.commit_phase", "tx", tx_);
  try {
    prepare_all();
  } catch (...) {
    fail_commit();
    throw;
  }
  commit_prepared();
}

void ShardTx::fail_commit() {
  // At most one write group: no decision record was written and every
  // ticket is released (or spent), so — like a lone Transaction whose
  // commit failed — the handle may still roll back to a checkpoint and
  // commit again under the same TxId.  abort() ends (and counts) it.
  if (cross_groups_.size() <= 1) {
    state_ = State::kActive;
    return;
  }
  state_ = State::kFinished;
  owner_->stats_.aborts.fetch_add(1, std::memory_order_relaxed);
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
