#include "src/nesting/transaction.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

namespace acn::nesting {

TxId next_tx_id() {
  static std::atomic<TxId> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

Transaction::Transaction(dtm::QuorumStub& stub, TxId id) : stub_(stub), id_(id) {
  frames_.emplace_back();
}

std::vector<dtm::VersionCheck> Transaction::all_version_checks() const {
  std::vector<dtm::VersionCheck> checks;
  for (const auto& frame : frames_)
    for (const auto& [key, record] : frame.reads)
      checks.push_back({key, record.version});
  return checks;
}

const Record* Transaction::find_buffered(const ObjectKey& key) const {
  for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
    if (const auto w = it->writes.find(key); w != it->writes.end())
      return &w->second;
    if (const auto r = it->reads.find(key); r != it->reads.end())
      return &r->second.value;
  }
  return nullptr;
}

void Transaction::set_contention_piggyback(std::vector<dtm::ClassId> classes,
                                           ContentionSink sink) {
  piggyback_classes_ = std::move(classes);
  piggyback_sink_ = std::move(sink);
}

void Transaction::deliver_levels(const std::vector<std::uint64_t>& levels) const {
  if (piggyback_sink_ && !levels.empty())
    piggyback_sink_(piggyback_classes_, levels);
}

Record Transaction::read(const ObjectKey& key) {
  if (const Record* buffered = find_buffered(key)) {
    if (obs_) obs_->cached_reads.add();
    return *buffered;
  }
  if (obs_) obs_->remote_reads.add();
  auto outcome = stub_.read(id_, key, all_version_checks(), piggyback_classes_);
  deliver_levels(outcome.contention);
  return frames_.back().reads.emplace(key, std::move(outcome.record))
      .first->second.value;
}

std::vector<std::pair<ObjectKey, VersionedRecord>> Transaction::read_many(
    const std::vector<ObjectKey>& keys,
    const std::vector<ObjectKey>& speculative) {
  std::vector<ObjectKey> fetch;
  fetch.reserve(keys.size() + speculative.size());
  const auto want = [&](const ObjectKey& key) {
    return find_buffered(key) == nullptr &&
           std::find(fetch.begin(), fetch.end(), key) == fetch.end();
  };
  for (const auto& key : keys)
    if (want(key)) fetch.push_back(key);
  const std::size_t group_count = fetch.size();
  for (const auto& key : speculative)
    if (want(key)) fetch.push_back(key);
  if (fetch.empty()) return {};

  if (obs_ && group_count > 0) obs_->remote_reads.add(group_count);
  auto outcome =
      stub_.read_many(id_, fetch, all_version_checks(), piggyback_classes_);
  deliver_levels(outcome.contention);

  std::vector<std::pair<ObjectKey, VersionedRecord>> spec;
  spec.reserve(fetch.size() - group_count);
  for (std::size_t i = 0; i < fetch.size(); ++i) {
    if (i < group_count)
      frames_.back().reads.emplace(fetch[i], std::move(outcome.records[i]));
    else
      spec.emplace_back(fetch[i], std::move(outcome.records[i]));
  }
  return spec;
}

bool Transaction::adopt_read(const ObjectKey& key, const VersionedRecord& record) {
  if (find_buffered(key) != nullptr) return false;
  frames_.back().reads.emplace(key, record);
  return true;
}

void Transaction::write(const ObjectKey& key, Record value) {
  if (!has_read(key) && !has_written(key))
    throw std::logic_error("Transaction::write before read: " +
                           store::to_string(key) + " (use insert for fresh objects)");
  frames_.back().writes[key] = std::move(value);
}

void Transaction::insert(const ObjectKey& key, Record value) {
  frames_.back().writes[key] = std::move(value);
}

bool Transaction::has_read(const ObjectKey& key) const {
  return std::any_of(frames_.begin(), frames_.end(), [&](const Frame& f) {
    return f.reads.contains(key);
  });
}

bool Transaction::has_written(const ObjectKey& key) const {
  return std::any_of(frames_.begin(), frames_.end(), [&](const Frame& f) {
    return f.writes.contains(key);
  });
}

void Transaction::begin_nested() {
  if (frames_.size() >= 2)
    throw std::logic_error(
        "Transaction::begin_nested: only one level of nesting is supported");
  frames_.emplace_back();
}

void Transaction::commit_nested() {
  if (frames_.size() < 2)
    throw std::logic_error("Transaction::commit_nested without begin_nested");
  Frame top = std::move(frames_.back());
  frames_.pop_back();
  Frame& parent = frames_.back();
  for (auto& [key, record] : top.reads) parent.reads.emplace(key, std::move(record));
  for (auto& [key, value] : top.writes) parent.writes[key] = std::move(value);
}

void Transaction::abort_nested() {
  if (frames_.size() < 2)
    throw std::logic_error("Transaction::abort_nested without begin_nested");
  frames_.pop_back();
}

AbortScope count_classification(obs::Observability* obs, AbortScope scope) {
  if (obs) {
    if (scope == AbortScope::kPartial)
      obs->classify_partial.add();
    else
      obs->classify_full.add();
  }
  return scope;
}

AbortScope Transaction::classify(const TxAbort& abort) const {
  return count_classification(obs_, scope_of(abort));
}

AbortScope Transaction::scope_of(const TxAbort& abort) const {
  if (frames_.size() < 2) return AbortScope::kFull;
  // Partial rollback applies only when every invalidated object was first
  // accessed by the active sub-transaction: objects never seen before (e.g.
  // the busy object of the read that just failed) also qualify, since
  // re-running the sub-transaction re-issues that access.
  for (const auto& key : abort.invalid()) {
    for (std::size_t i = 0; i + 1 < frames_.size(); ++i) {
      if (frames_[i].reads.contains(key) || frames_[i].writes.contains(key))
        return AbortScope::kFull;
    }
  }
  return AbortScope::kPartial;
}

void Transaction::commit() {
  obs::Tracer::Span commit_span;
  if (obs_)
    commit_span.restart(&obs_->tracer, "tx.commit_phase", "tx", id_,
                        "writes",
                        static_cast<std::int64_t>(frames_.front().writes.size()));
  prepare();
  commit_prepared();
}

void Transaction::prepare() {
  if (frames_.size() != 1)
    throw std::logic_error("Transaction::prepare with open sub-transaction");
  if (frames_.front().writes.empty()) {
    // Read-only: one final validation round suffices (no 2PC).
    stub_.validate(id_, all_version_checks());
    return;
  }
  ticket_ = stub_.prepare(prepare_call({}, -1));
}

dtm::PrepareCall Transaction::prepare_call(
    const std::vector<std::uint32_t>& participants, std::int64_t coordinator) {
  if (frames_.size() != 1)
    throw std::logic_error("Transaction::prepare with open sub-transaction");
  const Frame& frame = frames_.front();
  std::vector<ObjectKey> write_keys;
  write_keys.reserve(frame.writes.size());
  for (const auto& [key, value] : frame.writes) write_keys.push_back(key);
  std::sort(write_keys.begin(), write_keys.end());

  std::vector<Version> read_versions;
  read_versions.reserve(write_keys.size());
  values_.clear();
  values_.reserve(write_keys.size());
  for (const auto& key : write_keys) {
    const auto it = frame.reads.find(key);
    read_versions.push_back(it == frame.reads.end() ? 0 : it->second.version);
    values_.push_back(frame.writes.at(key));
  }

  dtm::PrepareExtras extras;
  if (!participants.empty()) {
    extras.participants = participants;
    extras.coordinator = coordinator;
    extras.values = values_;
  }
  // Validation payload: reads not overwritten still need their version
  // checked; written objects are protected during prepare, and their checks
  // ride along too (the server skips self-protected busy conflicts by
  // comparing versions only).
  return stub_.prepare_call(id_, all_version_checks(), write_keys,
                            read_versions, extras);
}

std::vector<dtm::VersionCheck> Transaction::unwritten_read_checks() const {
  std::vector<dtm::VersionCheck> checks;
  for (const auto& frame : frames_)
    for (const auto& [key, record] : frame.reads)
      if (!has_written(key)) checks.push_back({key, record.version});
  return checks;
}

void Transaction::commit_prepared() {
  const std::optional<dtm::PrepareTicket> ticket = take_ticket();
  if (ticket) stub_.commit(*ticket, values_);
  if (!history_) return;
  CommittedTxn entry;
  entry.tx = id_;
  for (const auto& [key, record] : frames_.front().reads)
    entry.reads.push_back({key, record.version});
  if (ticket)
    for (std::size_t i = 0; i < ticket->keys.size(); ++i)
      entry.writes.push_back({ticket->keys[i], ticket->new_versions[i]});
  history_->record(std::move(entry));
}

void Transaction::abort_prepared() {
  if (const std::optional<dtm::PrepareTicket> ticket = take_ticket())
    stub_.abort(*ticket);
}

bool Transaction::restore_checkpoint(std::size_t index) {
  frames_ = std::move(checkpoints_.at(index));
  checkpoints_.resize(index);
  return true;
}

void Transaction::reset(TxId new_id) {
  frames_.clear();
  frames_.emplace_back();
  checkpoints_.clear();
  ticket_.reset();
  id_ = new_id;
}

std::size_t Transaction::read_set_size() const {
  std::size_t total = 0;
  for (const auto& frame : frames_) total += frame.reads.size();
  return total;
}

std::size_t Transaction::write_set_size() const {
  std::size_t total = 0;
  for (const auto& frame : frames_) total += frame.writes.size();
  return total;
}

}  // namespace acn::nesting
