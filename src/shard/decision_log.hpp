// Coordinator decision records for cross-shard 2PC.
//
// The unreplicated coordinator is the single point whose crash can strand a
// prepared group: once ANY participant has been told to commit, presumed
// abort is wrong for the others.  The DecisionLog closes that window —
// commit_prepared() records the decision (plus the exact phase-two push for
// every participant group) BEFORE the first phase-two message leaves, so
// the outcome of every transaction that might have partially installed is
// recoverable.  The records live in memory: they survive the ShardTx and
// even the CrossShardCoordinator object (the network handler holds the log
// by shared_ptr), modelling a coordinator whose process is alive but whose
// transaction handle is long gone.
//
// A commit record keeps its pushes as bytes, each push a length-prefixed
// wire-encoded CommitRequest, in one allocation per record.  The log keeps
// every decision, so its size grows with cross-shard commits; pushes are
// decoded only on the rare in-doubt path (push_for, answer).
//
// A coordinator registers a DecisionQuery handler on its client node that
// answers from this log, so in-doubt participants (and the harness
// resolver) reach it through the same faulty network as all other traffic:
// crashing the coordinator's node makes the record unreachable exactly when
// a real coordinator crash would.
//
// Termination precedence built on these answers (see DESIGN §13): a
// kCommitted/kAborted record is authoritative; kUnknown from a LIVE
// coordinator is authoritative abort (the decision is logged before any
// phase-two send, so no record means no group was told to commit); an
// unreachable coordinator decides nothing.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/dtm/messages.hpp"

namespace acn::shard {

enum class Decision : std::uint8_t { kCommit = 1, kAbort = 2 };

class DecisionLog {
 public:
  DecisionLog() = default;
  DecisionLog(const DecisionLog&) = delete;
  DecisionLog& operator=(const DecisionLog&) = delete;

  /// Record the commit decision and the per-group phase-two pushes.  Must
  /// happen-before any phase-two send.  Returns false — and records NOTHING —
  /// when the transaction's outcome is already sealed as abort (an explicit
  /// record_abort, or answer() having served presumed abort to a querier):
  /// a zombie coordinator deciding commit after its prepares were resolved
  /// away must abort instead of pushing phase 2.
  bool record_commit(dtm::TxId tx, std::vector<dtm::CommitRequest> pushes);
  void record_abort(dtm::TxId tx);

  std::optional<Decision> decision(dtm::TxId tx) const;

  /// The stored phase-two push for `group`, when `tx` was decided commit.
  std::optional<dtm::CommitRequest> push_for(dtm::TxId tx,
                                             std::uint32_t group) const;

  /// Answer a DecisionQuery from the records: kCommitted (with the stored
  /// push payload for the querying group) or kAborted.  Never kInDoubt —
  /// the coordinator either decided or it did not — and never kUnknown:
  /// answering "no record" IS the presumed-abort promise, so an unknown
  /// transaction is sealed as aborted before the reply leaves (a later
  /// record_commit for it is refused).  Without the seal a zombie
  /// coordinator could decide commit after a resolver acted on the absence
  /// of its record.
  dtm::DecisionReply answer(const dtm::DecisionQuery& query);

  std::size_t size() const;

 private:
  struct Entry {
    Decision decision = Decision::kAbort;
    /// Commit decisions: every push as [u32 length][encoded CommitRequest].
    std::vector<std::uint8_t> pushes;
  };

  /// The stored push for `group` in `entry`, decoded.
  static std::optional<dtm::CommitRequest> find_push(const Entry& entry,
                                                     std::uint32_t group);

  mutable std::mutex mutex_;
  std::unordered_map<dtm::TxId, Entry> entries_;
};

}  // namespace acn::shard
