#include "src/dtm/server.hpp"

#include <algorithm>
#include <utility>

#include "src/common/clock.hpp"

namespace acn::dtm {
namespace {

// FIFO cap on the presumed-abort / idempotency memories (server.hpp says
// why eviction is safe).  They must cover the horizon in which a finished
// transaction's id can still arrive:
//   * phase-two replays, at most max_commit_replays rounds and op_deadline
//     after the first push;
//   * DecisionQuery from in-doubt siblings and from replicas rejoining
//     within a fault window.
// 32,768 ids is about 3 s of tpcc-lan's commits on a root, which sees every
// commit; a full set costs 512 KB.
constexpr std::size_t kMaxRememberedTx = 1 << 15;

}  // namespace

Server::Server(net::NodeId id, std::int64_t contention_window_ns,
               std::int64_t prepare_lease_ns)
    : id_(id),
      lease_ns_(prepare_lease_ns),
      contention_(contention_window_ns),
      expired_(kMaxRememberedTx),
      committed_(kMaxRememberedTx) {}

Response Server::handle(net::NodeId /*from*/, const Request& request) {
  expire_stale_leases();
  Response out;
  std::visit(
      [&](const auto& req) {
        using T = std::decay_t<decltype(req)>;
        if constexpr (std::is_same_v<T, ReadRequest>)
          out.payload = on_read(req);
        else if constexpr (std::is_same_v<T, BatchedReadRequest>)
          out.payload = on_batched_read(req);
        else if constexpr (std::is_same_v<T, ValidateRequest>)
          out.payload = on_validate(req);
        else if constexpr (std::is_same_v<T, PrepareRequest>)
          out.payload = on_prepare(req);
        else if constexpr (std::is_same_v<T, CommitRequest>)
          out.payload = on_commit(req);
        else if constexpr (std::is_same_v<T, AbortRequest>)
          out.payload = on_abort(req);
        else if constexpr (std::is_same_v<T, ContentionRequest>)
          out.payload = on_contention(req);
        else if constexpr (std::is_same_v<T, DecisionQuery>)
          out.payload = on_decision(req);
      },
      request.payload);
  return out;
}

std::size_t Server::expire_stale_leases() {
  if (lease_ns_ <= 0) return 0;
  const std::uint64_t now = now_ns();
  if (now < next_expiry_ns_.load(std::memory_order_relaxed)) return 0;

  std::vector<std::pair<TxId, Lease>> victims;
  std::size_t parked = 0;
  {
    std::lock_guard<std::mutex> guard(lease_mutex_);
    std::uint64_t next = UINT64_MAX;
    for (auto it = leases_.begin(); it != leases_.end();) {
      if (it->second.deadline_ns <= now) {
        if (it->second.cross_shard()) {
          // A sibling group may already have been told to commit, so this
          // prepare cannot be presumed aborted.  Park it in-doubt: freeze
          // the lease, keep the protections, wait for termination.
          it->second.deadline_ns = UINT64_MAX;
          if (indoubt_.insert(it->first).second) ++parked;
          ++it;
          continue;
        }
        expired_.insert(it->first);
        victims.emplace_back(it->first, std::move(it->second));
        it = leases_.erase(it);
      } else {
        next = std::min(next, it->second.deadline_ns);
        ++it;
      }
    }
    next_expiry_ns_.store(next, std::memory_order_relaxed);
  }
  if (parked != 0)
    stats_.indoubt_parked.fetch_add(parked, std::memory_order_relaxed);
  if (victims.empty()) return 0;

  // Unprotect outside the lease lock: the store has its own sharded locking
  // and unprotect(tx) is a no-op if the tx no longer holds the key.
  for (const auto& [tx, lease] : victims)
    for (const auto& key : lease.keys) store_.unprotect(key, tx);

  stats_.leases_expired.fetch_add(victims.size(), std::memory_order_relaxed);
  if (obs_ != nullptr) obs_->rpc_lease_expired.add(victims.size());
  return victims.size();
}

std::size_t Server::open_lease_count() const {
  std::lock_guard<std::mutex> guard(lease_mutex_);
  return leases_.size();
}

std::vector<OpenPrepare> Server::open_prepares() const {
  std::lock_guard<std::mutex> guard(lease_mutex_);
  std::vector<OpenPrepare> out;
  out.reserve(leases_.size());
  for (const auto& [tx, lease] : leases_)
    out.push_back(
        {tx, lease.keys, lease.participants, lease.coordinator, lease.values});
  return out;
}

std::vector<InDoubtTx> Server::indoubt_transactions() const {
  std::lock_guard<std::mutex> guard(lease_mutex_);
  std::vector<InDoubtTx> out;
  out.reserve(indoubt_.size());
  for (const TxId tx : indoubt_) {
    const auto it = leases_.find(tx);
    if (it == leases_.end()) continue;
    out.push_back(
        {tx, it->second.keys, it->second.participants, it->second.coordinator});
  }
  return out;
}

std::size_t Server::indoubt_count() const {
  std::lock_guard<std::mutex> guard(lease_mutex_);
  return indoubt_.size();
}

void Server::reset_volatile_state() {
  store_.clear();
  contention_.reset();
  std::lock_guard<std::mutex> guard(lease_mutex_);
  leases_.clear();
  expired_.clear();
  committed_.clear();
  indoubt_.clear();
  next_expiry_ns_.store(UINT64_MAX, std::memory_order_relaxed);
}

void Server::install_recovered(
    const std::vector<std::pair<ObjectKey, VersionedRecord>>& objects,
    const std::vector<OpenPrepare>& open_prepares) {
  for (const auto& [key, rec] : objects)
    store_.seed(key, rec.value, rec.version);
  const std::uint64_t now = now_ns();
  for (const auto& prepare : open_prepares) {
    for (const auto& key : prepare.keys) store_.try_protect(key, prepare.tx);
    // The lease clock restarts at recovery time: the original deadline was
    // volatile, and presumed abort only needs *a* bounded wait, not the
    // original one.
    record_lease(prepare, now);
  }
}

void Server::record_lease(OpenPrepare prepare, std::uint64_t now) {
  std::lock_guard<std::mutex> guard(lease_mutex_);
  // A fresh prepare supersedes any earlier presumed abort of the same tx:
  // the client went through its own abort/retry and re-acquired protection.
  expired_.erase(prepare.tx);
  indoubt_.erase(prepare.tx);
  Lease& lease = leases_[prepare.tx];
  lease.keys = std::move(prepare.keys);
  lease.participants = std::move(prepare.participants);
  lease.coordinator = prepare.coordinator;
  lease.values = std::move(prepare.values);
  if (lease_ns_ > 0) {
    lease.deadline_ns = now + static_cast<std::uint64_t>(lease_ns_);
    std::uint64_t prev = next_expiry_ns_.load(std::memory_order_relaxed);
    while (prev > lease.deadline_ns &&
           !next_expiry_ns_.compare_exchange_weak(prev, lease.deadline_ns,
                                                  std::memory_order_relaxed)) {
    }
  } else {
    lease.deadline_ns = UINT64_MAX;
  }
}

std::vector<ObjectKey> Server::failed_checks(
    const std::vector<VersionCheck>& checks, TxId self, bool& busy) const {
  std::vector<ObjectKey> invalid;
  for (const auto& check : checks) {
    const auto result = store_.read_validating(check.key, self);
    switch (result.status) {
      case store::ReadStatus::kOk:
        if (result.record.version > check.version) invalid.push_back(check.key);
        break;
      case store::ReadStatus::kProtected:
        // A commit is installing this object right now.  If the last
        // committed version already refutes the check, say so; otherwise
        // the checker's version may be outdated a microsecond from now and
        // only a retry can tell.
        if (result.record.version > check.version)
          invalid.push_back(check.key);
        else
          busy = true;
        break;
      case store::ReadStatus::kMissing:
        // This replica is stale (never saw the object) — it cannot refute
        // the check; the quorum intersection guarantees some replica can.
        break;
    }
  }
  return invalid;
}

ReadResponse Server::on_read(const ReadRequest& req) {
  stats_.reads.fetch_add(1, std::memory_order_relaxed);
  ReadResponse res;

  bool busy = false;
  res.invalid = failed_checks(req.validate, req.tx, busy);
  if (!res.invalid.empty()) {
    stats_.validations_failed.fetch_add(1, std::memory_order_relaxed);
    res.code = ReadCode::kInvalid;
    return res;
  }
  if (busy) {
    // A previously-read object is protected by a commit in flight: serving
    // the new value now could pair it with the (possibly about-to-change)
    // old one in the caller's snapshot.  Make the caller retry after the
    // commit settles, when validation can give a definite answer.
    res.code = ReadCode::kBusy;
    return res;
  }

  const auto result = store_.read(req.key);
  switch (result.status) {
    case store::ReadStatus::kOk:
      res.code = ReadCode::kOk;
      res.record = result.record;
      break;
    case store::ReadStatus::kProtected:
      res.code = ReadCode::kBusy;
      break;
    case store::ReadStatus::kMissing:
      res.code = ReadCode::kMissing;
      break;
  }

  if (!req.want_contention.empty())
    res.contention = contention_.class_levels(req.want_contention);
  return res;
}

BatchedReadResponse Server::on_batched_read(const BatchedReadRequest& req) {
  stats_.batched_reads.fetch_add(1, std::memory_order_relaxed);
  stats_.reads.fetch_add(req.keys.size(), std::memory_order_relaxed);
  BatchedReadResponse res;

  // Incremental validation runs once for the whole batch: a refuted check
  // poisons every key (same rule as a single Read — the caller's snapshot
  // is broken regardless of which key it was about to fetch), and a
  // protected check makes the whole round inconclusive.
  bool busy = false;
  res.invalid = failed_checks(req.validate, req.tx, busy);
  if (!res.invalid.empty()) {
    stats_.validations_failed.fetch_add(1, std::memory_order_relaxed);
    res.codes.assign(req.keys.size(), ReadCode::kInvalid);
    return res;
  }
  if (busy) {
    res.codes.assign(req.keys.size(), ReadCode::kBusy);
    return res;
  }

  res.codes.reserve(req.keys.size());
  res.records.resize(req.keys.size());
  for (std::size_t i = 0; i < req.keys.size(); ++i) {
    const auto result = store_.read(req.keys[i]);
    switch (result.status) {
      case store::ReadStatus::kOk:
        res.codes.push_back(ReadCode::kOk);
        res.records[i] = result.record;
        break;
      case store::ReadStatus::kProtected:
        res.codes.push_back(ReadCode::kBusy);
        break;
      case store::ReadStatus::kMissing:
        res.codes.push_back(ReadCode::kMissing);
        break;
    }
  }

  if (!req.want_contention.empty())
    res.contention = contention_.class_levels(req.want_contention);
  return res;
}

ValidateResponse Server::on_validate(const ValidateRequest& req) {
  ValidateResponse res;
  res.invalid = failed_checks(req.validate, req.tx, res.busy);
  if (!res.invalid.empty())
    stats_.validations_failed.fetch_add(1, std::memory_order_relaxed);
  return res;
}

PrepareResponse Server::on_prepare(const PrepareRequest& req) {
  stats_.prepares.fetch_add(1, std::memory_order_relaxed);
  PrepareResponse res;

  if (req.group != group_) {
    // Misrouted prepare (a stale shard map or a routing bug): refuse before
    // touching the store — protecting keys this group does not own would
    // let a transaction "commit" against replicas no reader ever consults.
    stats_.wrong_group.fetch_add(1, std::memory_order_relaxed);
    res.code = PrepareCode::kWrongGroup;
    return res;
  }

  // Phase 1a: protect the write set.  Keys arrive sorted from the
  // coordinator; try_protect fails fast, so no deadlock is possible.
  std::vector<ObjectKey> protected_keys;
  protected_keys.reserve(req.write_keys.size());
  for (const auto& key : req.write_keys) {
    if (!store_.try_protect(key, req.tx)) {
      for (const auto& undo : protected_keys) store_.unprotect(undo, req.tx);
      stats_.prepare_busy.fetch_add(1, std::memory_order_relaxed);
      res.code = PrepareCode::kBusy;
      return res;
    }
    protected_keys.push_back(key);
  }

  // Phase 1b: validate the read set under protection.
  bool busy = false;
  res.invalid = failed_checks(req.read_validate, req.tx, busy);
  if (!res.invalid.empty() || busy) {
    for (const auto& undo : protected_keys) store_.unprotect(undo, req.tx);
    if (!res.invalid.empty()) {
      stats_.prepare_invalid.fetch_add(1, std::memory_order_relaxed);
      res.code = PrepareCode::kInvalid;
    } else {
      stats_.prepare_busy.fetch_add(1, std::memory_order_relaxed);
      res.code = PrepareCode::kBusy;
    }
    return res;
  }

  // The lease is recorded even when expiry is disabled: on_commit needs the
  // prepared/committed distinction to classify phase-two replays.
  record_lease(
      {req.tx, req.write_keys, req.participants, req.coordinator, req.values},
      now_ns());
  // Logged only once the prepare is binding: recovery re-arms exactly the
  // protections that were held, and the fresh lease expires them if the
  // coordinator never comes back.  The full request is logged so cross-shard
  // metadata (in-doubt eligibility, redo payload) survives a restart.
  if (durability_ != nullptr) durability_->log_prepare(req);

  res.code = PrepareCode::kOk;
  res.current_versions.reserve(req.write_keys.size());
  for (const auto& key : req.write_keys)
    res.current_versions.push_back(store_.version_of(key).value_or(0));
  return res;
}

CommitResponse Server::on_commit(const CommitRequest& req) {
  stats_.commits.fetch_add(1, std::memory_order_relaxed);

  if (req.group != group_) {
    // Nothing was prepared here (on_prepare refuses group mismatches), so
    // kExpired states the truth: this install did not and will not happen.
    stats_.wrong_group.fetch_add(1, std::memory_order_relaxed);
    return CommitResponse{CommitCode::kExpired};
  }

  bool replay = false;
  bool was_indoubt = false;
  {
    std::lock_guard<std::mutex> guard(lease_mutex_);
    if (expired_.contains(req.tx)) {
      // Presumed abort: the prepare lease ran out and the protections were
      // already released — another transaction may have prepared these keys
      // since.  Installing now could stomp its protected snapshot, so the
      // late commit is refused outright.
      stats_.commits_rejected.fetch_add(1, std::memory_order_relaxed);
      if (obs_ != nullptr) obs_->rpc_commit_rejected.add();
      return CommitResponse{CommitCode::kExpired};
    }
    replay = !committed_.insert(req.tx);
    leases_.erase(req.tx);
    was_indoubt = indoubt_.erase(req.tx) != 0;
  }
  if (was_indoubt) {
    // A late phase-two push (or a resolver acting on a decision record)
    // terminated a parked in-doubt prepare on the commit side.
    stats_.indoubt_resolved_commits.fetch_add(1, std::memory_order_relaxed);
    if (obs_ != nullptr) obs_->indoubt_resolved_commit.add();
  }

  if (replay) {
    // apply() is version-guarded, so re-installing on a replay is a no-op,
    // and it is not counted: the first delivery already counted the writes.
    for (std::size_t i = 0; i < req.keys.size(); ++i)
      store_.apply(req.keys[i], req.values[i], req.versions[i], req.tx);
    // Only the local stat: the sender already counted the replay round into
    // obs (rpc.commit.replayed), so bumping here would double-count.
    stats_.commit_replays.fetch_add(1, std::memory_order_relaxed);
    return CommitResponse{CommitCode::kDuplicate};
  }

  // Each key is installed and counted in one store lookup.  Keys arrive
  // sorted, so a class's keys are adjacent and each run raises its class
  // maximum once, with the run's highest count.
  const std::uint32_t window = contention_.window(now_ns());
  std::uint32_t hottest = 0;
  for (std::size_t i = 0; i < req.keys.size(); ++i) {
    hottest = std::max(hottest,
                       store_.apply_counted(req.keys[i], req.values[i],
                                            req.versions[i], req.tx, window));
    if (i + 1 == req.keys.size() || req.keys[i + 1].cls != req.keys[i].cls) {
      contention_.note(window, req.keys[i].cls, hottest);
      hottest = 0;
    }
  }

  if (durability_ != nullptr) {
    // Logged *after* install so that when the sink seals a log prefix for
    // snapshotting, every record in the prefix is already in the store —
    // the invariant DurabilitySink::write_snapshot relies on.  The ack-
    // before-durable window this opens is the group-commit window the
    // rejoin delta catch-up already covers.
    if (durability_->log_commit(req))
      durability_->write_snapshot([this] {
        return SnapshotData{store_.snapshot(), open_prepares()};
      });
  }
  return CommitResponse{CommitCode::kApplied};
}

AbortResponse Server::on_abort(const AbortRequest& req) {
  stats_.aborts.fetch_add(1, std::memory_order_relaxed);
  bool was_prepared = false;
  bool was_indoubt = false;
  {
    std::lock_guard<std::mutex> guard(lease_mutex_);
    const auto it = leases_.find(req.tx);
    if (it != leases_.end()) {
      was_prepared = true;
      // A cross-shard abort is remembered: a sibling group's DecisionQuery
      // treats kAborted as authoritative, so the answer must outlive the
      // lease itself.
      if (it->second.cross_shard()) expired_.insert(req.tx);
      leases_.erase(it);
    }
    was_indoubt = indoubt_.erase(req.tx) != 0;
  }
  for (const auto& key : req.keys) store_.unprotect(key, req.tx);
  if (was_indoubt) {
    stats_.indoubt_resolved_aborts.fetch_add(1, std::memory_order_relaxed);
    if (obs_ != nullptr) obs_->indoubt_resolved_abort.add();
  }
  // Only a prepared tx left a log record to cancel; an abort that merely
  // cleans up a failed prepare has nothing recovery could misread.
  if (was_prepared && durability_ != nullptr)
    durability_->log_abort(req.tx, req.keys);
  return {};
}

ContentionResponse Server::on_contention(const ContentionRequest& req) {
  contention_.maybe_roll(now_ns());
  ContentionResponse res;
  res.levels = contention_.class_levels(req.classes);
  return res;
}

DecisionReply Server::on_decision(const DecisionQuery& req) {
  stats_.decision_queries.fetch_add(1, std::memory_order_relaxed);
  if (obs_ != nullptr) obs_->indoubt_queries.add();
  DecisionReply res;
  std::lock_guard<std::mutex> guard(lease_mutex_);
  if (committed_.contains(req.tx)) {
    res.code = DecisionCode::kCommitted;
    return res;
  }
  if (expired_.contains(req.tx)) {
    res.code = DecisionCode::kAborted;
    return res;
  }
  const auto it = leases_.find(req.tx);
  if (it == leases_.end()) {
    res.code = DecisionCode::kUnknown;
    return res;
  }
  // Still prepared here (live lease or parked in-doubt).  Ship the redo
  // payload plus locally-proposed install versions so a resolver that
  // learns the global outcome is commit can finish the install without
  // the coordinator's phase-two message.
  res.code = DecisionCode::kInDoubt;
  res.keys = it->second.keys;
  res.values = it->second.values;
  res.versions.reserve(it->second.keys.size());
  for (const auto& key : it->second.keys)
    res.versions.push_back(store_.version_of(key).value_or(0) + 1);
  return res;
}

}  // namespace acn::dtm
