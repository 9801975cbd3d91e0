// Transactions over a sharded cluster: one context per transaction, and
// 2PC across quorum groups when it spans several.
//
// A CrossShardCoordinator is one client's gateway to a sharded cluster: it
// holds one QuorumStub per quorum group (all sharing the client's network
// identity) and hands out ShardTx handles.  A ShardTx is a router: every
// access goes to the nesting::Transaction of the key's serving group,
// opened under the handle's TxId on the group's first access.  The group
// Transactions hold the read/write sets, the Block frames and the
// checkpoints; they validate each read against the reads already made on
// their group, batch reads and piggyback contention queries.  At commit()
// the ShardTx classifies itself by the groups it ACTUALLY touched (the
// predicted footprint only picks the home group, it never decides the
// commit):
//
//   * one group — the messages and rounds of a lone Transaction: one
//     prepare + one commit round on the group's write quorum (one
//     validation round if read-only).  No other group hears about it.
//   * several groups — 2PC with the coordinator as the (unreplicated)
//     transaction manager, each phase ONE network round over all its
//     groups (a per-target multicall; each group's stub judges its own
//     replies): a prepare round over every write group (a transaction
//     that writes nothing validates every group instead); when it read a
//     key it does not write, a validation round over all such reads while
//     every grant is held (Silo's lock-then-validate order: of two
//     transactions that each read what the other writes, one finds the
//     other's protection); then phase two to every prepared group.  A
//     group found busy or unreachable in the prepare round is claimed in
//     order: the grants below it are kept, those above it released, and
//     the rest climbed in ascending group order, so a transaction never
//     retries a group while it holds a higher one.  Any other failure
//     releases every grant in one round.
//
// Coordinator crash tolerance is layered:
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
#include <vector>

#include "src/acn/executor.hpp"
#include "src/dtm/quorum_stub.hpp"
#include "src/harness/cluster.hpp"
#include "src/nesting/context.hpp"
#include "src/nesting/history.hpp"
#include "src/nesting/transaction.hpp"
#include "src/shard/decision_log.hpp"
#include "src/shard/router.hpp"

namespace acn::shard {

struct CoordinatorStats {
  std::atomic<std::uint64_t> single_shard_commits{0};
  std::atomic<std::uint64_t> cross_shard_commits{0};
  /// Handles finished without committing: abort(), or a failed commit that
  /// had written a decision record.
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

/// One transaction against the sharded keyspace, and the context
/// shard::Client's Executor drives.  Each group Transaction is opened at
/// the handle's current frame depth and checkpoint count, so the frame and
/// checkpoint calls below apply to every group alike.  Not thread-safe; one
/// client thread drives a ShardTx from begin to commit/abort.
class ShardTx final : public nesting::TxContext {
 public:
  /// Read `key` through its serving group's Transaction (read-your-writes,
  /// incremental validation within the group).  Replicated-class keys are
  /// served by the transaction's home group — every group holds them, so
  /// the read never widens the participant set.  Throws what
  /// Transaction::read throws.
  store::Record read(const store::ObjectKey& key) override;

  /// Transaction::write (the key must have been read first) and
  /// Transaction::insert (a blind write) on the serving group.  Writes to
  /// replicated classes are refused (std::logic_error) — the groups'
  /// copies would silently diverge.
  void write(const store::ObjectKey& key, store::Record value) override;
  void insert(const store::ObjectKey& key, store::Record value) override;

  /// Splits both lists by serving group and calls each group's
  /// Transaction::read_many once, in ascending group order: one read round
  /// per group.  Returns every group's speculative records.
  std::vector<std::pair<store::ObjectKey, store::VersionedRecord>> read_many(
      const std::vector<store::ObjectKey>& keys,
      const std::vector<store::ObjectKey>& speculative) override;
  bool adopt_read(const store::ObjectKey& key,
                  const store::VersionedRecord& record) override;

  void begin_nested() override;
  void commit_nested() override;
  void abort_nested() override;
  /// Partial iff a frame is open and no group Transaction holds an
  /// invalidated key below it.  Counted once, not once per group.
  nesting::AbortScope classify(const dtm::TxAbort& abort) const override;

  /// Returns false once the handle is finished.  The Executor never
  /// checkpoints inside a Block frame.
  void checkpoint() override;
  bool restore_checkpoint(std::size_t index) override;

  /// prepare_all(), then commit_prepared().  Throws TxAbort on
  /// conflict/expiry, with the transaction fully released.  With at most
  /// one write group (no decision record) the handle stays active, as a
  /// lone Transaction does: it may restore a checkpoint and commit again.
  /// Otherwise the handle is finished.
  void commit() override;

  /// Release anything prepared and finish the handle.  Safe to call in any
  /// state; idempotent.
  void abort() override;

  // -- 2PC phase by phase (commit() composes them; coordinator-crash tests
  //    drive them one at a time) ------------------------------------------
  /// Phase 1 only: classify, prepare every write group in one round, then
  /// validate the unwritten reads in one more (several groups, or nothing
  /// written).  Returns the number of groups holding a prepare ticket.
  /// Abandoning the handle after this call models a coordinator crash
  /// between prepares: the groups' leases expire and presumed abort
  /// releases them.
  std::size_t prepare_all();
  /// Phase 2 over the tickets prepare_all() acquired: the decision record
  /// (several write groups), then one round to every prepared group.
  void commit_prepared();
  /// Presumed-abort cleanup of prepare_all()'s tickets, in one round.
  void abort_prepared();
  /// Every (key, proposed version) the tickets of prepare_all() would
  /// install, across all groups — what the atomicity checker needs for a
  /// transaction abandoned before any decision.
  std::vector<std::pair<store::ObjectKey, store::Version>> prepared_writes()
      const;

  dtm::TxId id() const noexcept override { return tx_; }
  const RoutePlan& predicted() const noexcept { return predicted_; }
  /// The groups actually touched; meaningful after prepare_all()/commit().
  const RoutePlan& committed_plan() const noexcept { return plan_; }

 private:
  friend class CrossShardCoordinator;

  enum class State { kActive, kPrepared, kFinished };

  ShardTx(CrossShardCoordinator* owner, dtm::TxId tx, RoutePlan predicted,
          const acn::ExecutorConfig* config)
      : owner_(owner),
        config_(config),
        tx_(tx),
        predicted_(std::move(predicted)) {}

  /// The group that serves `key`: the owner, or the home group for
  /// replicated classes.
  std::uint32_t serving_group(const store::ObjectKey& key) const;
  /// `group`'s Transaction, opened (and armed) on first use.
  nesting::Transaction& group_tx(std::uint32_t group);
  /// The serving group's Transaction for a write, after the
  /// replicated-class refusal.
  nesting::Transaction& write_tx(const store::ObjectKey& key);
  /// State after a failed commit (see commit()).
  void fail_commit();

  /// The members of one group a release must reach, and its keys.
  struct Release {
    std::uint32_t group;
    std::vector<store::ObjectKey> keys;
    std::vector<net::NodeId> members;
  };
  /// Round one: prepare every write group in one round, then the ordered
  /// claim when a group was busy or unreachable.  Throws holding what it
  /// acquired; a refusal first releases everything.
  void prepare_writes();
  /// One round validating, in every group, the reads not written; a busy
  /// or unreached group climbs its stub's ladder.
  void validate_reads();
  /// Every held ticket, taken from its group.
  std::vector<Release> take_held();
  /// One release round over the members named (none when no member
  /// qualifies); each group's stub replays to its unacked members.
  void release(std::vector<Release> releases);
  /// Record the abort of a cross-shard transaction that holds tickets, and
  /// release them together with `loose` in one round.
  void unwind(std::vector<Release> loose);

  CrossShardCoordinator* owner_ = nullptr;
  /// The run's config the group Transactions are armed with (null: none).
  const acn::ExecutorConfig* config_ = nullptr;
  dtm::TxId tx_ = 0;
  RoutePlan predicted_;
  RoutePlan plan_;
  /// Write-participant groups (sorted); > 1 makes the transaction subject
  /// to decision records and in-doubt parking.  Set by prepare_all().
  std::vector<std::uint32_t> cross_groups_;
  State state_ = State::kActive;
  /// One Transaction per group touched, in ascending group order.
  std::map<std::uint32_t, nesting::Transaction> groups_;
  /// Open frames (1 outside a Block) and checkpoints taken: where a group
  /// opened later starts.
  std::size_t depth_ = 1;
  std::size_t checkpoint_count_ = 0;
};

/// An acn::Executor built over a coordinator runs every attempt in a
/// ShardTx: shard::Client's one optimistic path.
class CrossShardCoordinator final : public acn::ContextSource {
 public:
  /// `client_ordinal` is the client's network identity (shared by all the
  /// coordinator's per-group stubs) and must be unique per coordinator —
  /// it is also folded into transaction ids so two coordinators can never
  /// mint the same TxId.  The constructor registers a DecisionQuery handler
  /// on that node answering from the coordinator's DecisionLog, so
  /// participants and resolvers can read decision records over the (faulty)
  /// network.
  CrossShardCoordinator(harness::Cluster& cluster, const ShardRouter& router,
                        int client_ordinal, std::uint64_t seed = 0);

  /// Start a transaction; `predicted` seeds the route plan (pass
  /// acn::predicted_footprint output, or {} when nothing is predictable).
  /// `config` (which must outlive the handle) arms its group Transactions.
  ShardTx begin(const KeyFootprint& predicted = {},
                const acn::ExecutorConfig* config = nullptr);

  /// begin(), as a context an Executor owns.
  std::unique_ptr<nesting::TxContext> open(
      const KeyFootprint& predicted,
      const acn::ExecutorConfig& config) override {
    return std::make_unique<ShardTx>(begin(predicted, &config));
  }

  const ShardRouter& router() const noexcept { return router_; }
  const CoordinatorStats& stats() const noexcept { return stats_; }

  /// How the last ShardTx this coordinator committed was routed.
  struct CommitRoute {
    bool predicted_single = false;  // its predicted plan had one group
    bool single = false;            // it committed on one group
  };
  const CommitRoute& last_commit() const noexcept { return last_commit_; }

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
  /// One network round carrying every part (each group's stub shares the
  /// client's transport and node id); replies per part.
  std::vector<std::vector<net::CallResult<dtm::Response>>> exchange(
      const std::vector<dtm::RoundPart>& parts);
  /// Commit-side accounting, once per committed ShardTx.
  void note_commit(const RoutePlan& predicted, const RoutePlan& committed);

  const ShardRouter& router_;
  std::vector<dtm::QuorumStub> stubs_;  // indexed by group
  std::shared_ptr<DecisionLog> decisions_;
  net::NodeId client_node_ = -1;
  nesting::HistoryLog* history_ = nullptr;
  nesting::CrossShardLog* cross_log_ = nullptr;
  CoordinatorStats stats_;
  CommitRoute last_commit_;
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
