// The unified submission API for sharded workloads (shard::Client).
//
// A Client is what a workload thread holds instead of a raw Executor: one
// endpoint that accepts every TxProgram under every protocol and decides,
// per transaction, how it reaches the cluster.  Dispatch is footprint
// driven:
//
//   1. lane — with a deterministic lane armed, evaluate
//      acn::predicted_footprint over the bound params; under kQueue, or
//      kHybrid when the scheduler calls the footprint hot, the transaction
//      goes to the epoch lane first, and a demotion falls through to step 2.
//   2. the one Executor — every optimistic transaction runs through one
//      acn::Executor over the Client's CrossShardCoordinator, so every
//      attempt runs in a ShardTx: each access goes to a nesting::
//      Transaction on the key's group, with full ACN partial rollback,
//      batched reads, prefetch and checkpointing.  A transaction that
//      touched one group commits there alone, and no other group hears
//      about it; one that touched several commits by 2PC.  A mispredicted
//      footprint (a pointer chase onto another group's key) costs no
//      re-run: the key is read from the group that owns it, and the commit
//      spans that group too.
//
// The contention-aware scheduler sees one conversation per transaction
// (admit / on_full_abort / finish, 2PC aborts classified with the shared
// acn::outcome_of): admission control is a property of the submission API,
// not of any one execution engine.
//
// ClientFleet is the per-benchmark bundle: it owns the ShardMap (built
// from the workload's placement), the ShardRouter and the shared
// ClientStats, seeds a cluster owner-scoped, and hands the harness a
// SubmitterFactory so the driver builds one Client per worker thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "src/acn/executor.hpp"
#include "src/harness/driver.hpp"
#include "src/shard/coordinator.hpp"
#include "src/workloads/workload.hpp"

namespace acn::shard {

/// How a Client executes transactions:
///   * kAcn    — the optimistic Executor only, the pre-queue behavior;
///   * kQueue  — every transaction with a predictable footprint goes to the
///     deterministic epoch lane (src/queue); the optimistic path serves
///     only demotions and unpredictable transactions;
///   * kHybrid — the scheduler routes: transactions whose predicted
///     footprint touches a hot key (SchedulerGate::any_hot) go to the
///     lane, cold traffic stays optimistic.
enum class ExecMode { kAcn, kQueue, kHybrid };

const char* exec_mode_name(ExecMode mode) noexcept;
/// Parse "acn" | "queue" | "hybrid"; nullopt on anything else.
std::optional<ExecMode> parse_exec_mode(std::string_view text) noexcept;

/// What the deterministic lane did with a submitted transaction.
enum class LaneOutcome {
  kCommitted,  // committed atomically with its epoch
  kDemoted,    // not executed (misprediction / epoch gave up) — the caller
               // re-runs it optimistically, serializing after the epoch
};

/// A deterministic execution lane (src/queue implements this over epochs).
/// The abstract interface keeps the layering acyclic — shard cannot link
/// the queue subsystem, which is built on top of it — mirroring
/// acn::SchedulerGate and harness::Submitter.  Implementations must be
/// thread-safe: every Client of a fleet submits into one shared lane.
class Lane {
 public:
  virtual ~Lane() = default;

  /// Hand one transaction to the lane and block until its epoch decides.
  /// `predicted` is the canonical predicted footprint (non-empty — callers
  /// keep unpredictable transactions on the optimistic path).  On
  /// kCommitted the lane has folded the execution into `stats`.
  virtual LaneOutcome submit(const ir::TxProgram& program,
                             const std::vector<acn::ir::Record>& params,
                             const KeyFootprint& predicted,
                             acn::ExecStats& stats) = 0;
};

/// Builds the fleet's shared lane on first use (called under the fleet's
/// lock, from whichever client thread gets there first).
using LaneFactory = std::function<std::shared_ptr<Lane>(
    harness::Cluster& cluster, const ShardRouter& router)>;

/// Dispatch counters, shared by every Client of a fleet.  The first three
/// count each optimistic transaction once, at commit, from the groups it
/// committed on.
struct ClientStats {
  /// Committed on one group (no other group heard about it).
  std::atomic<std::uint64_t> fast_path{0};
  /// Committed on several groups although the prediction had one: a
  /// mispredicted footprint the commit turned into 2PC.
  std::atomic<std::uint64_t> escalations{0};
  /// Committed on several groups by 2PC, escalations included.
  std::atomic<std::uint64_t> cross_shard{0};
  /// Sum of the per-coordinator atomicity-breach counters
  /// (CoordinatorStats::atomicity_breaches), folded in as Clients retire.
  /// The hard invariant every sharded gate asserts to be zero at exit.
  std::atomic<std::uint64_t> atomicity_breaches{0};
  /// Sum of CoordinatorStats::indoubt_handoffs: phase-2 pushes handed to
  /// cooperative termination after the decision was durably recorded
  /// (benign — the resolver finishes the install).
  std::atomic<std::uint64_t> indoubt_handoffs{0};
  /// Transactions handed to the deterministic lane (kQueue/kHybrid).
  std::atomic<std::uint64_t> lane_submits{0};
  /// Lane submissions that committed with their epoch.
  std::atomic<std::uint64_t> lane_commits{0};
  /// Lane submissions demoted back to the optimistic path.
  std::atomic<std::uint64_t> lane_demotions{0};
};

/// One worker thread's submission endpoint over a sharded cluster.
/// Implements harness::Submitter, so the driver (and every bench built on
/// it) is oblivious to sharding.  Not thread-safe — one Client per thread,
/// like the Executor it generalizes.
class Client final : public harness::Submitter {
 public:
  /// `client_ordinal` must be unique per Client (network identity of its
  /// coordinator's stubs and its TxId namespace).  `lane` (shared by the
  /// fleet) enables the deterministic dispatch of kQueue/kHybrid; kAcn
  /// ignores it.
  Client(harness::Cluster& cluster, const ShardRouter& router,
         ClientStats& stats, int client_ordinal, acn::ExecutorConfig config,
         std::uint64_t seed, ExecMode mode = ExecMode::kAcn,
         std::shared_ptr<Lane> lane = nullptr);
  ~Client() override;

  /// Execute one transaction to commit.  Same contract as Executor::run:
  /// throws std::invalid_argument when `options` lacks the protocol's
  /// inputs, the last dtm::TxAbort when retries are exhausted, and
  /// dtm::ObjectMissing for a key no group holds.
  void run(Protocol protocol, const acn::RunOptions& options,
           const std::vector<acn::ir::Record>& params,
           acn::ExecStats& stats) override;

  const CoordinatorStats& coordinator_stats() const noexcept {
    return coordinator_.stats();
  }

 private:
  ClientStats& stats_;
  ExecMode mode_ = ExecMode::kAcn;
  std::shared_ptr<Lane> lane_;
  CrossShardCoordinator coordinator_;
  /// Every optimistic attempt runs in a ShardTx coordinator_ opens.
  acn::Executor executor_;
};

/// Everything a benchmark needs to run a workload sharded: the ShardMap
/// derived from the workload's placement, the shared router and stats, and
/// the factory the harness driver consumes.  Outlives every Client it
/// builds (the driver joins its threads before the bench tears down).
class ClientFleet {
 public:
  /// Builds the map from `workload.placement()`: a custom shard function
  /// becomes Partitioning::kCustom (with the workload's replicated
  /// classes); no placement means salted-hash partitioning.
  ClientFleet(const workloads::Workload& workload, std::uint32_t n_shards);

  /// Owner-scoped seeding: every object lands on its owning group's
  /// replicas only (replicated classes on every group).  The sharded
  /// replacement for workload.seed(cluster.servers()).
  void seed(harness::Cluster& cluster, workloads::Workload& workload) const;

  /// Factory for harness::DriverConfig::make_submitter — one Client per
  /// worker thread, ordinal = thread index.
  harness::SubmitterFactory factory();

  /// Route transactions through a deterministic lane: every Client the
  /// factory builds after this call dispatches per `mode`, sharing one lane
  /// built lazily by `make_lane` on first use (client threads race to the
  /// factory, so construction is locked).  Call before the driver runs.
  void set_lane(ExecMode mode, LaneFactory make_lane);

  /// The shared lane instance, once some Client forced its construction
  /// (null before — e.g. before the driver ran, or in kAcn mode).  Benches
  /// read lane-side stats through this after a run.
  std::shared_ptr<Lane> lane() const;

  ExecMode mode() const noexcept { return mode_; }

  /// Partition function for harness::DriverConfig::shard_of (per-group
  /// hotness reporting).
  std::function<std::uint32_t(const store::ObjectKey&)> shard_of() const;

  const ShardMap& map() const noexcept { return map_; }
  const ShardRouter& router() const noexcept { return router_; }
  const ClientStats& stats() const noexcept { return stats_; }

 private:
  std::shared_ptr<Lane> lane_for(harness::Cluster& cluster);

  ShardMap map_;
  ShardRouter router_;
  ClientStats stats_;
  ExecMode mode_ = ExecMode::kAcn;
  LaneFactory make_lane_;
  mutable std::mutex lane_mutex_;
  std::shared_ptr<Lane> lane_;
};

}  // namespace acn::shard
