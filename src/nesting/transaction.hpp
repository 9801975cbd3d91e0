// Closed-nested transaction context (QR-CN, Section II/IV of the paper).
//
// A Transaction is a stack of *frames*.  Frame 0 is the parent; begin_nested
// pushes a sub-transaction frame.  Each frame owns the read-set entries for
// objects it accessed *first* and the write-set entries it produced:
//   * reads resolve top-down through the frames (read-your-writes, cached
//     re-reads) before going remote;
//   * every remote read ships the union of all frames' read versions for
//     incremental validation;
//   * commit_nested merges the top frame into its parent — the paper's
//     "sub-transaction commits into the private context of its parent";
//   * abort_nested discards the top frame only: that is the partial
//     rollback closed nesting buys.
// classify() implements the paper's abort rule: the abort is partial iff
// every invalidated object was first accessed by the currently executing
// sub-transaction; if any belongs to merged history the whole transaction
// must restart.
//
// The final commit() runs two-phase commit over a write quorum with the
// flattened read/write sets: prepare(), then commit_prepared().  The phases
// are public so a cross-shard context (shard::ShardTx, one Transaction per
// quorum group) can run them group by group under its own decision.  Only
// one level of nesting is supported, per the paper's system model
// (Section IV).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/dtm/quorum_stub.hpp"
#include "src/nesting/context.hpp"
#include "src/nesting/history.hpp"

namespace acn::nesting {

using dtm::Version;

struct TxnStats {
  std::uint64_t remote_reads = 0;
  std::uint64_t cached_reads = 0;
  std::uint64_t writes = 0;
};

class Transaction final : public TxContext {
  struct Frame {
    std::unordered_map<ObjectKey, VersionedRecord, store::ObjectKeyHash> reads;
    std::unordered_map<ObjectKey, Record, store::ObjectKeyHash> writes;
  };

 public:
  Transaction(dtm::QuorumStub& stub, TxId id);

  TxId id() const noexcept override { return id_; }

  /// Transactional read.  Returns the buffered/remote value.  Throws
  /// dtm::TxAbort (validation/busy/unavailable) or dtm::ObjectMissing.
  Record read(const ObjectKey& key) override;

  /// Batched transactional read: ONE quorum round fetches every key in
  /// `keys` that is not already buffered (installing them into the current
  /// frame) plus every key in `speculative`, whose records are *returned*
  /// instead of installed so a later frame can adopt them (adopt_read)
  /// without polluting this frame's read set.  Duplicates and buffered keys
  /// are skipped.  Throws exactly what read() throws.
  std::vector<std::pair<ObjectKey, VersionedRecord>> read_many(
      const std::vector<ObjectKey>& keys,
      const std::vector<ObjectKey>& speculative) override;

  /// Install a record fetched earlier (by a speculative read_many) into the
  /// current frame, as if read() had gone remote now.  The adopted version
  /// joins every later incremental-validation payload, so a record that went
  /// stale since the fetch aborts exactly like a stale read — and because it
  /// lives in the adopting frame, that abort classifies as partial.  Returns
  /// false (installing nothing) when the key is already buffered.
  bool adopt_read(const ObjectKey& key, const VersionedRecord& record) override;

  /// Buffer a write.  The object must have been read by this transaction
  /// first (QR-DTM write semantics: the first write fetches); use insert()
  /// for blind creation of fresh objects.
  void write(const ObjectKey& key, Record value) override;

  /// Blind insert of a fresh object (no remote fetch, version floor 0).
  void insert(const ObjectKey& key, Record value) override;

  bool has_read(const ObjectKey& key) const;
  bool has_written(const ObjectKey& key) const;

  // -- closed nesting ------------------------------------------------------
  void begin_nested() override;
  void commit_nested() override;  // merge top frame into its parent
  void abort_nested() override;   // discard top frame (partial rollback)
  std::size_t depth() const noexcept { return frames_.size(); }

  /// Partial iff a sub-transaction is active and no invalidated object
  /// belongs to a frame below the top.  Counted in the obs bundle.
  AbortScope classify(const TxAbort& abort) const override;
  /// classify() without counting, for a context that combines the verdicts
  /// of several Transactions and counts once.
  AbortScope scope_of(const TxAbort& abort) const;

  // -- checkpointing ---------------------------------------------------
  /// Deep copy of all frames.  O(read-set + write-set) — the cost the
  /// paper identifies as checkpointing's handicap versus closed nesting.
  void checkpoint() override { checkpoints_.push_back(frames_); }

  /// Reads/writes performed after the checkpoint are discarded; nothing was
  /// visible remotely, so no network I/O.  Always succeeds.
  bool restore_checkpoint(std::size_t index) override;

  // -- commit --------------------------------------------------------------
  /// Two-phase commit of the flattened sets: prepare(), then
  /// commit_prepared().  Throws TxAbort on conflict.
  void commit() override;

  /// Phase one; requires depth() == 1.  Prepares the write set on a write
  /// quorum and holds the ticket, or runs a read-only transaction's final
  /// validation round and holds nothing.  A non-empty `participants` (the
  /// write groups of a cross-shard transaction) is stamped into the prepare
  /// with `coordinator` and the redo values.  Throws TxAbort holding
  /// nothing (the stub releases what a failed prepare acquired).
  void prepare(const std::vector<std::uint32_t>& participants = {},
               std::int64_t coordinator = -1);
  /// Phase two: install the held prepare, if any, and record history.
  /// Throws what QuorumStub::commit throws; the ticket is spent either way.
  void commit_prepared();
  /// Release the held prepare, if any.
  void abort_prepared();
  /// The held prepare (null when none is held), and its values aligned
  /// with ticket()->keys.
  const dtm::PrepareTicket* ticket() const noexcept {
    return ticket_ ? &*ticket_ : nullptr;
  }
  const std::vector<Record>& prepared_values() const noexcept {
    return values_;
  }

  /// Release whatever prepare() holds; commit() itself holds nothing once
  /// it returns or throws.
  void abort() override { abort_prepared(); }

  /// Discard all buffered state and adopt a fresh id (full restart).
  void reset(TxId new_id);

  std::size_t read_set_size() const;
  std::size_t write_set_size() const;
  /// Every frame's read versions: the incremental-validation payload, and
  /// after commit the versions this transaction read.
  std::vector<dtm::VersionCheck> all_version_checks() const;
  const TxnStats& stats() const noexcept { return stats_; }

  /// When set, a successful commit() appends the transaction's read and
  /// installed versions to `log` (for offline serializability checking).
  void set_history(HistoryLog* log) noexcept { history_ = log; }

  /// When set, the transaction records cache-hit/remote read counters, the
  /// partial/full classification tallies, and a commit-phase trace span.
  void set_obs(obs::Observability* obs) noexcept { obs_ = obs; }

  /// Contention piggybacking: every remote read (and read_many round) also
  /// requests the levels of `classes` and delivers the reply to `sink`.
  /// This is the paper's "meta-data coupled with existing network
  /// messages" path (Section V-C2).
  using ContentionSink =
      std::function<void(const std::vector<dtm::ClassId>&,
                         const std::vector<std::uint64_t>&)>;
  void set_contention_piggyback(std::vector<dtm::ClassId> classes,
                                ContentionSink sink);

 private:
  const Record* find_buffered(const ObjectKey& key) const;
  /// Hand piggybacked contention levels to the sink, if any came back.
  void deliver_levels(const std::vector<std::uint64_t>& levels) const;

  dtm::QuorumStub& stub_;
  TxId id_;
  std::vector<Frame> frames_;
  std::vector<std::vector<Frame>> checkpoints_;
  std::optional<dtm::PrepareTicket> ticket_;
  std::vector<Record> values_;  // aligned with ticket_->keys
  TxnStats stats_;
  HistoryLog* history_ = nullptr;
  obs::Observability* obs_ = nullptr;
  std::vector<dtm::ClassId> piggyback_classes_;
  ContentionSink piggyback_sink_;
};

/// Tally `scope` in the obs bundle's nesting.classify.* counters (when
/// `obs` is set) and return it.
AbortScope count_classification(obs::Observability* obs, AbortScope scope);

/// Monotonic transaction-id source shared by all clients in the process.
TxId next_tx_id();

}  // namespace acn::nesting
