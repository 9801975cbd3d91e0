// Cross-shard transactions: the single-shard fast path and 2PC across
// quorum groups.
//
// A CrossShardCoordinator is one client's gateway to a sharded cluster: it
// holds one QuorumStub per quorum group (all sharing the client's network
// identity) and hands out ShardTx handles.  A ShardTx buffers writes
// locally (read-your-writes), routes every read to the owning group's read
// quorum with incremental validation against the reads already made on
// that group, and at commit() classifies itself by the keys it ACTUALLY
// touched (ShardRouter::reclassify — the predicted footprint only picks
// the expected plan, it never decides the commit):
//
//   * single-shard — every key lives on one group: the commit is exactly
//     the pre-sharding path, one prepare + one commit round on that
//     group's write quorum.  No other group hears about the transaction.
//   * multi-shard — 2PC with the coordinator as the (unreplicated)
//     transaction manager: phase 1 prepares every write group (ascending
//     group order — deterministic, so two coordinators cannot deadlock
//     across groups) and validates read-only groups; phase 2 commits each
//     prepared group.  Any phase-1 failure aborts every acquired ticket.
//
// Coordinator crash tolerance (PR 8) is layered:
//   * between prepares, presumed abort still rules — a single-write-group
//     prepare carries no cross-shard metadata, its lease expires, and a
//     late phase 2 is refused kExpired;
//   * once a transaction prepares MORE than one write group, each prepare
//     carries the participant set, the coordinator's node id, and the redo
//     payload.  An orphaned lease then parks *in-doubt* on its replicas
//     (protections held) instead of being presumed aborted;
//   * before the first phase-two message, the coordinator records its
//     decision (plus every group's exact push) in a DecisionLog reachable
//     over the network at the coordinator's client node — so a group that
//     cannot be pushed (partitioned, down) is an indoubt_handoff, not a
//     failure: cooperative termination (harness::resolve_indoubt) finishes
//     the install from the record, or from a sibling group's verdict when
//     the coordinator node itself is dead.
// atomicity_breaches counts the one remaining wrong outcome — a group
// refusing phase 2 as kExpired after the commit decision was recorded
// (i.e. an explicit abort raced the commit).  The shardscale and indoubt
// gates assert it stays zero.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/acn/executor.hpp"
#include "src/dtm/quorum_stub.hpp"
#include "src/harness/cluster.hpp"
#include "src/nesting/context.hpp"
#include "src/nesting/history.hpp"
#include "src/shard/decision_log.hpp"
#include "src/shard/router.hpp"

namespace acn::shard {

struct CoordinatorStats {
  std::atomic<std::uint64_t> single_shard_commits{0};
  std::atomic<std::uint64_t> cross_shard_commits{0};
  std::atomic<std::uint64_t> aborts{0};
  /// Atomicity breaches: a group refused phase 2 outright (kExpired) after
  /// the commit decision was durably recorded — some other group installed
  /// or will install, this one never will.  Hard invariant: zero under any
  /// fault plan (the shardscale / partition / indoubt gates assert it).
  std::atomic<std::uint64_t> atomicity_breaches{0};
  /// Phase-two pushes handed to cooperative termination: the group was
  /// unreachable after bounded retries, the decision record stands, and the
  /// in-doubt resolver finishes the install once the fault heals.  The
  /// transaction still counts as committed.
  std::atomic<std::uint64_t> indoubt_handoffs{0};
};

class CrossShardCoordinator;

/// One transaction against the sharded keyspace, and the context an
/// acn::Executor drives on the cross-shard path.  Not thread-safe; one
/// client thread drives a ShardTx from begin to commit/abort.
class ShardTx final : public nesting::TxContext {
 public:
  /// Read `key` from its owning group (read-your-writes: a buffered write
  /// or prior read of the key is served locally).  Replicated-class keys
  /// are served by the transaction's home group — every group holds them,
  /// so the read never widens the participant set.  Throws what
  /// QuorumStub::read throws.
  store::Record read(const store::ObjectKey& key) override;

  /// Buffer a write; nothing goes remote until commit().  Writes to
  /// replicated classes are refused (std::logic_error) — the groups'
  /// copies would silently diverge.
  void write(const store::ObjectKey& key, store::Record value) override;

  /// Prepare validates read checks only, never write versions, so a
  /// buffered write with no prior read IS a blind insert.
  void insert(const store::ObjectKey& key, store::Record value) override {
    write(key, std::move(value));
  }

  /// Reads `keys` one at a time (batching per group is not implemented)
  /// and fetches nothing speculatively.
  std::vector<std::pair<store::ObjectKey, store::VersionedRecord>> read_many(
      const std::vector<store::ObjectKey>& keys,
      const std::vector<store::ObjectKey>& speculative) override;
  bool adopt_read(const store::ObjectKey& key,
                  const store::VersionedRecord& record) override;

  /// The Block frame is one saved copy of the buffered sets: abort_nested
  /// puts it back, and an abort is partial iff none of its invalidated keys
  /// was read before the frame began.
  void begin_nested() override;
  void commit_nested() override;
  void abort_nested() override;
  nesting::AbortScope classify(const dtm::TxAbort& abort) const override;

  /// Checkpoints are saved copies too.  A finished handle (its commit
  /// failed and released everything) cannot roll back.
  void checkpoint() override;
  bool restore_checkpoint(std::size_t index) override;

  /// The buffered read/write-sets, as restore() installs them.
  struct Checkpoint {
    std::map<store::ObjectKey, store::VersionedRecord> reads;
    std::map<store::ObjectKey, std::uint32_t> read_groups;
    std::map<store::ObjectKey, store::Record> writes;
  };
  /// Replace the buffered state (kActive only).  The epoch lane installs an
  /// epoch's combined read and write sets this way before committing.
  void restore(Checkpoint checkpoint);

  /// Classify by the keys actually touched and run the single-shard fast
  /// path or cross-shard 2PC.  Throws TxAbort on conflict/expiry (the
  /// transaction is then fully released) and leaves the handle finished.
  void commit() override;

  /// Release anything prepared and finish the handle.  Safe to call in any
  /// state; idempotent.
  void abort() override;

  // -- test hooks: drive 2PC phase by phase (coordinator-crash tests) ------
  /// Phase 1 only: classify, prepare every write group, validate read-only
  /// groups.  Returns the number of groups holding a prepare ticket.
  /// Abandoning the handle after this call models a coordinator crash
  /// between prepares: the groups' leases expire and presumed abort
  /// releases them.
  std::size_t prepare_all();
  /// Phase 2 over the tickets prepare_all() acquired.
  void commit_prepared();
  /// Presumed-abort cleanup of prepare_all()'s tickets.
  void abort_prepared();
  /// Every (key, proposed version) the tickets of prepare_all() would
  /// install, across all groups — what the atomicity checker needs for a
  /// transaction abandoned before any decision.
  std::vector<std::pair<store::ObjectKey, store::Version>> prepared_writes()
      const;

  dtm::TxId id() const noexcept override { return tx_; }
  const RoutePlan& predicted() const noexcept { return predicted_; }
  /// The reclassified plan; meaningful after prepare_all()/commit().
  const RoutePlan& committed_plan() const noexcept { return plan_; }

 private:
  friend class CrossShardCoordinator;

  enum class State { kActive, kPrepared, kFinished };

  struct PreparedGroup {
    std::uint32_t group = 0;
    dtm::PrepareTicket ticket;
    std::vector<store::Record> values;  // aligned with ticket.keys
  };

  ShardTx(CrossShardCoordinator* owner, dtm::TxId tx, RoutePlan predicted)
      : owner_(owner), tx_(tx), predicted_(std::move(predicted)) {}

  std::vector<dtm::VersionCheck> group_checks(std::uint32_t group) const;
  Checkpoint buffered() const { return {reads_, read_groups_, writes_}; }

  /// The group a read of `key` would be (or was) served by: the owner, or
  /// the home group for replicated classes.
  std::uint32_t serving_group(const store::ObjectKey& key) const;

  CrossShardCoordinator* owner_ = nullptr;
  dtm::TxId tx_ = 0;
  RoutePlan predicted_;
  RoutePlan plan_;
  /// Write-participant groups (sorted); > 1 makes the transaction subject
  /// to decision records and in-doubt parking.  Set by prepare_all().
  std::vector<std::uint32_t> cross_groups_;
  State state_ = State::kActive;
  std::map<store::ObjectKey, store::VersionedRecord> reads_;
  /// Which group served each read (validation must go back to it).
  std::map<store::ObjectKey, std::uint32_t> read_groups_;
  std::map<store::ObjectKey, store::Record> writes_;
  std::vector<PreparedGroup> prepared_;
  /// The open Block frame's saved state, and the saved checkpoints.
  std::optional<Checkpoint> frame_;
  std::vector<Checkpoint> checkpoints_;
};

/// An acn::Executor built over a coordinator runs every attempt in a
/// ShardTx: the cross-shard path of shard::Client.
class CrossShardCoordinator final : public acn::ContextSource {
 public:
  /// `client_ordinal` is the client's network identity (shared by all the
  /// coordinator's per-group stubs) and must be unique per coordinator —
  /// it is also folded into transaction ids so two coordinators can never
  /// mint the same TxId.  The constructor registers a DecisionQuery handler
  /// on that node answering from the coordinator's DecisionLog, so
  /// participants and resolvers can read decision records over the (faulty)
  /// network; `decision_log_path` makes the records durable ("" = memory).
  CrossShardCoordinator(harness::Cluster& cluster, const ShardRouter& router,
                        int client_ordinal, std::uint64_t seed = 0,
                        std::string decision_log_path = {});

  /// Start a transaction; `predicted` seeds the route plan (pass
  /// acn::predicted_footprint output, or {} when nothing is predictable).
  ShardTx begin(const KeyFootprint& predicted = {});

  /// begin(), as a context an Executor owns.
  std::unique_ptr<nesting::TxContext> open(
      const KeyFootprint& predicted) override {
    return std::make_unique<ShardTx>(begin(predicted));
  }

  const ShardRouter& router() const noexcept { return router_; }
  const CoordinatorStats& stats() const noexcept { return stats_; }

  /// The decision records (shared with the network handler, which keeps
  /// them answerable after this object dies — a coordinator "crash" in the
  /// chaos model is its NODE going down, not the log vanishing).
  DecisionLog& decisions() noexcept { return *decisions_; }
  net::NodeId client_node() const noexcept { return client_node_; }

  /// Optional verification taps.  `history` receives every ShardTx commit
  /// (reads + installed versions) for the serializability checker;
  /// `cross` receives every multi-group decision (commit AND abort) for
  /// the cross-shard atomicity checker.  Both may be null.
  void set_logs(nesting::HistoryLog* history,
                nesting::CrossShardLog* cross) noexcept {
    history_ = history;
    cross_log_ = cross;
  }

 private:
  friend class ShardTx;

  dtm::QuorumStub& stub(std::uint32_t group) { return stubs_.at(group); }

  const ShardRouter& router_;
  std::vector<dtm::QuorumStub> stubs_;  // indexed by group
  std::shared_ptr<DecisionLog> decisions_;
  net::NodeId client_node_ = -1;
  nesting::HistoryLog* history_ = nullptr;
  nesting::CrossShardLog* cross_log_ = nullptr;
  CoordinatorStats stats_;
  std::uint64_t tx_base_ = 0;
  std::atomic<std::uint64_t> tx_seq_{0};
};

/// Seed `key` = `value` on every replica of its owning group — the sharded
/// analogue of workloads::seed_all (seeding a foreign group would plant
/// keys its quorums never serve but its snapshots would drag around).
/// Replicated-class keys are seeded on every group.
void seed_sharded(harness::Cluster& cluster, const ShardMap& map,
                  const store::ObjectKey& key, const store::Record& value);

/// Latest committed value of `key`, read from its owning group's replicas
/// (every replica for replicated classes; max-version copy).  Throws
/// std::runtime_error when no replica of the group holds it.
store::VersionedRecord latest_sharded(harness::Cluster& cluster,
                                      const ShardMap& map,
                                      const store::ObjectKey& key);

}  // namespace acn::shard
