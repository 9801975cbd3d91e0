// The transactional context interface: what ir::TxEnv and acn::Executor
// drive, whichever runtime sits underneath.
//
//   * nesting::Transaction — one quorum group, closed nesting (the paper's
//     QR-CN runtime);
//   * shard::ShardTx       — a router over one nesting::Transaction per
//     quorum group it touches, 2PC across them at commit;
//   * queue::SpecBackend   — an epoch entry's speculative workspace (the
//     TxAccess part only: epochs never nest or retry per entry).
//
// The Block frame is a closed-nesting stack: begin_nested pushes a child
// frame, commit_nested merges it into its parent, abort_nested discards only
// the child's state.  Checkpoints are the Section III alternative: deep
// copies of the buffered state that a later abort can roll back to.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "src/dtm/abort.hpp"
#include "src/dtm/messages.hpp"

namespace acn::nesting {

using dtm::TxAbort;
using dtm::TxId;
using store::ObjectKey;
using store::Record;
using store::VersionedRecord;

/// Outcome classification for a TxAbort observed mid-execution.
enum class AbortScope {
  kPartial,  // only the active sub-transaction must re-execute
  kFull,     // the whole transaction must restart
};

/// The accesses a transaction program makes (ir::TxEnv's view).  Reads are
/// read-your-writes; writes are buffered until commit.  Conflicts surface as
/// dtm::TxAbort.
class TxAccess {
 public:
  virtual ~TxAccess() = default;

  virtual Record read(const ObjectKey& key) = 0;
  /// Buffer a write to an object this transaction has read.
  virtual void write(const ObjectKey& key, Record value) = 0;
  /// Buffer a blind insert of a fresh object.
  virtual void insert(const ObjectKey& key, Record value) = 0;

 protected:
  // Copy and move only as part of a derived object, never sliced.
  TxAccess() = default;
  TxAccess(const TxAccess&) = default;
  TxAccess(TxAccess&&) = default;
  TxAccess& operator=(const TxAccess&) = default;
  TxAccess& operator=(TxAccess&&) = default;
};

/// One attempt of a transaction, as acn::Executor drives it.
class TxContext : public TxAccess {
 public:
  virtual TxId id() const noexcept = 0;

  /// Read every key of `keys` not already buffered into the current frame.
  /// A context may also fetch `speculative` and return those records
  /// instead of installing them, for a later frame to adopt_read().
  virtual std::vector<std::pair<ObjectKey, VersionedRecord>> read_many(
      const std::vector<ObjectKey>& keys,
      const std::vector<ObjectKey>& speculative) = 0;

  /// Install a record read_many() returned into the current frame, as if
  /// read() fetched it now.  False (installing nothing) when the key is
  /// already buffered.
  virtual bool adopt_read(const ObjectKey& key,
                          const VersionedRecord& record) = 0;

  // -- the Block frame -------------------------------------------------
  virtual void begin_nested() = 0;
  virtual void commit_nested() = 0;  // merge the frame into its parent
  virtual void abort_nested() = 0;   // discard the frame (partial rollback)
  /// kPartial iff a frame is open and discarding it discards every read
  /// the abort invalidated.
  virtual AbortScope classify(const TxAbort& abort) const = 0;

  // -- checkpoints -----------------------------------------------------
  /// Save a deep copy of the buffered state; the n-th call saves
  /// checkpoint n - 1.
  virtual void checkpoint() = 0;
  /// Roll back to checkpoint `index`, dropping it and every later one.
  /// False, changing nothing, when the context can no longer roll back.
  virtual bool restore_checkpoint(std::size_t index) = 0;

  /// Commit; throws TxAbort on conflict.
  virtual void commit() = 0;
  /// Release whatever the attempt holds.  Safe after a failed commit().
  virtual void abort() = 0;
};

}  // namespace acn::nesting
