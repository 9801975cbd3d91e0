// Quorum server node.
//
// A server holds one full replica (VersionedStore), tracks write contention
// per window (ContentionTracker), and services the six QR-DTM request kinds.
// Handlers run on the calling client thread (see net::Network) and rely on
// the store's internal sharded locking for mutual exclusion, so a server is
// safe under any number of concurrent clients.
//
// Prepare leases (fault tolerance): when `prepare_lease_ns > 0`, every
// successful prepare records a lease — the set of keys it protected plus a
// deadline.  A client that dies (or is partitioned away) between prepare
// and commit can no longer wedge those keys forever: the lease expires
// lazily on the next request, the protections are released, and the
// transaction is remembered as *presumed aborted* — a late commit for it is
// refused with CommitCode::kExpired.  Commits are idempotent (replays ack
// as kDuplicate), so a live client can safely retry phase two through
// request- or response-leg drops.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/dtm/durability.hpp"
#include "src/dtm/messages.hpp"
#include "src/dtm/remembered_set.hpp"
#include "src/net/network.hpp"
#include "src/obs/obs.hpp"
#include "src/store/contention_tracker.hpp"
#include "src/store/versioned_store.hpp"

namespace acn::dtm {

struct ServerStats {
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> batched_reads{0};  // batch requests (not keys)
  std::atomic<std::uint64_t> validations_failed{0};
  std::atomic<std::uint64_t> prepares{0};
  std::atomic<std::uint64_t> prepare_busy{0};
  std::atomic<std::uint64_t> prepare_invalid{0};
  std::atomic<std::uint64_t> commits{0};
  std::atomic<std::uint64_t> commit_replays{0};     // duplicate phase-two acks
  std::atomic<std::uint64_t> commits_rejected{0};   // refused: lease expired
  std::atomic<std::uint64_t> leases_expired{0};     // prepares reclaimed
  std::atomic<std::uint64_t> aborts{0};
  std::atomic<std::uint64_t> wrong_group{0};        // misrouted prepare/commit
  std::atomic<std::uint64_t> indoubt_parked{0};     // cross-shard leases held
  std::atomic<std::uint64_t> indoubt_resolved_commits{0};
  std::atomic<std::uint64_t> indoubt_resolved_aborts{0};
  std::atomic<std::uint64_t> decision_queries{0};
};

/// A cross-shard prepare whose lease expired with the outcome unknown: the
/// protections are still held and only cooperative termination (a commit,
/// an abort, or a DecisionQuery-driven resolution) releases them.
struct InDoubtTx {
  TxId tx = 0;
  std::vector<ObjectKey> keys;
  std::vector<std::uint32_t> participants;
  std::int64_t coordinator = -1;
};

class Server {
 public:
  /// `contention_window_ns` <= 0 disables time-based window rolling (the
  /// harness then rolls explicitly via roll_contention_window()).
  /// `prepare_lease_ns` <= 0 disables prepare-lease expiry (prepared locks
  /// are then only released by an explicit commit or abort).
  Server(net::NodeId id, std::int64_t contention_window_ns = 0,
         std::int64_t prepare_lease_ns = 0);

  net::NodeId id() const noexcept { return id_; }

  /// Quorum group this replica belongs to (sharded clusters; 0 otherwise).
  /// Prepares and commits addressed to another group are refused — a
  /// replica must never protect or install keys its group does not own.
  /// Wire it before traffic starts (not synchronized with handlers).
  void set_group(std::uint32_t group) noexcept { group_ = group; }
  std::uint32_t group() const noexcept { return group_; }

  Response handle(net::NodeId from, const Request& request);

  /// Direct store access for initial population and white-box tests.
  store::VersionedStore& store() noexcept { return store_; }
  const store::VersionedStore& store() const noexcept { return store_; }

  store::ContentionTracker& contention() noexcept { return contention_; }
  void roll_contention_window() { contention_.roll(); }

  /// Release every prepare lease whose deadline has passed (presumed
  /// abort).  Runs lazily at the top of handle(); exposed so a harness can
  /// force final cleanup once traffic stops.  Returns leases reclaimed.
  /// A *cross-shard* prepare (more than one participant group) is never
  /// presumed aborted here: a sibling group may already have been told to
  /// commit, so it parks in-doubt with its protections intact and waits
  /// for cooperative termination.
  std::size_t expire_stale_leases();

  /// Prepared transactions currently holding a live lease.
  std::size_t open_lease_count() const;

  /// Cross-shard transactions parked in-doubt (lease expired, outcome
  /// unknown), with the metadata a resolver needs to terminate them.
  std::vector<InDoubtTx> indoubt_transactions() const;
  std::size_t indoubt_count() const;

  /// Route lease/commit-replay instrumentation into `obs` (null = off).
  void set_obs(obs::Observability* obs) noexcept { obs_ = obs; }

  /// Attach a durability sink (null = volatile replica).  Prepares, commits
  /// and aborts are logged at the moment they bind this replica; the sink
  /// decides when a snapshot is due.  Not synchronized with in-flight
  /// handlers — wire it before traffic starts.
  void set_durability(DurabilitySink* sink) noexcept { durability_ = sink; }

  /// Prepared-but-unresolved transactions (live leases) — what a snapshot
  /// must carry so protections survive log compaction.
  std::vector<OpenPrepare> open_prepares() const;

  /// Simulated crash: drop everything a real process death would lose —
  /// the store, the leases, and the presumed-abort/idempotency memories.
  /// (The contention tracker resets too; it is advisory and refills.)
  void reset_volatile_state();

  /// Install recovered state: seed the committed objects, then re-arm each
  /// open prepare as protections under a fresh lease so the presumed-abort
  /// expiry path (not the reboot) decides those transactions' fate.
  void install_recovered(
      const std::vector<std::pair<ObjectKey, VersionedRecord>>& objects,
      const std::vector<OpenPrepare>& open_prepares);

  const ServerStats& stats() const noexcept { return stats_; }

 private:
  ReadResponse on_read(const ReadRequest& req);
  BatchedReadResponse on_batched_read(const BatchedReadRequest& req);
  ValidateResponse on_validate(const ValidateRequest& req);
  PrepareResponse on_prepare(const PrepareRequest& req);
  CommitResponse on_commit(const CommitRequest& req);
  AbortResponse on_abort(const AbortRequest& req);
  ContentionResponse on_contention(const ContentionRequest& req);
  DecisionReply on_decision(const DecisionQuery& req);

  /// Returns the keys among `checks` for which this replica holds a newer
  /// version.  `self` is the transaction doing the validation (objects it
  /// protects itself are not conflicts).  Objects protected by *another*
  /// transaction fail validation too (reported through `busy`): the
  /// in-flight commit may be about to install a newer version, and treating
  /// it as valid would open a write-skew window.
  std::vector<ObjectKey> failed_checks(const std::vector<VersionCheck>& checks,
                                       TxId self, bool& busy) const;

  // Lease bookkeeping (requires lease_mutex_).
  void record_lease(const OpenPrepare& prepare, std::uint64_t now);

  struct Lease {
    std::vector<ObjectKey> keys;
    std::uint64_t deadline_ns = 0;
    // Cross-shard metadata from the prepare (see PrepareRequest): decides
    // in-doubt eligibility on expiry and carries the redo payload a
    // resolver needs to finish the install without the coordinator.
    std::vector<std::uint32_t> participants;
    std::int64_t coordinator = -1;
    std::vector<Record> values;

    bool cross_shard() const noexcept { return participants.size() > 1; }
  };

  net::NodeId id_;
  std::uint32_t group_ = 0;
  std::int64_t lease_ns_;
  store::VersionedStore store_;
  store::ContentionTracker contention_;
  ServerStats stats_;
  obs::Observability* obs_ = nullptr;
  DurabilitySink* durability_ = nullptr;

  mutable std::mutex lease_mutex_;
  std::unordered_map<TxId, Lease> leases_;
  // Presumed-abort / idempotency memory.  Both are bounded FIFOs: dropping
  // an ancient entry only costs the precise kDuplicate/kExpired verdict for
  // a tx that finished long ago — a replayed apply() is version-guarded and
  // therefore harmless either way.
  RememberedTxSet expired_;
  RememberedTxSet committed_;
  // Cross-shard leases whose deadline passed: still in leases_ (frozen at
  // deadline UINT64_MAX, protections held) until cooperative termination
  // commits or aborts them.  Unbounded by design — an in-doubt transaction
  // must never be forgotten while undecided.
  std::unordered_set<TxId> indoubt_;
  // Earliest lease deadline: handle() skips the lease scan entirely until
  // the clock passes it.
  std::atomic<std::uint64_t> next_expiry_ns_{UINT64_MAX};
};

}  // namespace acn::dtm
