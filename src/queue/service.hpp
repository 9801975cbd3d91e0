// The queue-oriented deterministic epoch executor (shard::Lane).
//
// EpochService is the subsystem's engine: a planner thread batches
// submitted transactions into epochs, plans per-key priority queues from
// their predicted footprints (src/queue/epoch.hpp), and opens one ShardTx
// per epoch attempt.  The ShardTx prefetches every planned key
// speculatively (read_many: one batched quorum round per group), and a
// pool of queue executors runs the entries speculatively against the
// prefetched workspace (src/queue/executor.hpp).  All writes of an epoch
// then commit in ONE decision: the workspace's consumed reads are adopted
// into the ShardTx (adopt_read), its final writes inserted, and the ShardTx
// committed — single-group epochs take the classic one-prepare path,
// multi-group epochs take cross-shard 2PC with decision records, in-doubt
// parking and the WAL group-commit underneath, all inherited from
// src/shard.  Cross-shard 2PC thus collapses from one decision per
// transaction into one decision per epoch.
//
// Intra-epoch conflicts never abort: they are queue order.  The epoch can
// still lose a *validation* race against state that changed after the
// prefetch (hybrid mode's optimistic traffic, a concurrent lane, chaos);
// the planner then refetches and re-runs the whole epoch — deterministic,
// so every re-run executes the same order — up to max_epoch_retries, after
// which the batch is demoted wholesale to the optimistic path (liveness
// does not depend on the epoch ever winning).
//
// Submitters block in submit() until their epoch decides; the driver's
// client threads thus pace themselves to the epoch cadence, which is the
// paradigm's batching discipline (QueCC's "plan, then execute").  The
// planner cuts the next epoch once the submitters the last one released
// are back (see QueueConfig::epoch_max), so a closed loop batches without
// idling out epoch_wait.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/harness/cluster.hpp"
#include "src/obs/obs.hpp"
#include "src/queue/epoch.hpp"
#include "src/queue/executor.hpp"
#include "src/shard/client.hpp"
#include "src/shard/coordinator.hpp"

namespace acn::queue {

struct QueueConfig {
  /// Largest epoch.  The planner closes an epoch once as many transactions
  /// are pending as the previous epoch released plus those already pending
  /// when it did, capped at epoch_max (the first epoch waits for epoch_max),
  /// or when epoch_wait elapsed with at least one.
  std::size_t epoch_max = 128;
  /// How long the planner waits for the epoch to fill after the first
  /// pending submission.  Under a closed-loop driver every client blocks in
  /// submit(), so the epoch size is ~n_clients and the cut usually comes as
  /// soon as the last released client is back; the wait then only bounds
  /// how long an epoch waits for a client that submitted elsewhere.
  std::chrono::nanoseconds epoch_wait{std::chrono::microseconds{200}};
  /// Queue executor threads draining the ready entries of an epoch.
  std::size_t n_executors = 4;
  /// Whole-epoch re-runs after a commit-time abort (validation races from
  /// concurrent optimistic traffic, cluster faults) before demoting the
  /// batch to the optimistic path.
  int max_epoch_retries = 12;
  /// Backoff base between epoch re-runs (doubling, capped).
  std::chrono::nanoseconds retry_backoff{std::chrono::microseconds{100}};
};

/// Lane-side counters (tests and benches read these; the obs bundle gets
/// the same signals as queue.epoch.* / queue.spec.* when wired).
struct ServiceStats {
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> epochs{0};          // epochs planned
  std::atomic<std::uint64_t> epoch_commits{0};   // epochs whose decision held
  std::atomic<std::uint64_t> epoch_retries{0};   // whole-epoch re-runs
  std::atomic<std::uint64_t> committed{0};       // entries committed in-epoch
  std::atomic<std::uint64_t> demoted{0};         // entries returned kDemoted
  std::atomic<std::uint64_t> mispredicted{0};    // demotions by unplanned key
  std::atomic<std::uint64_t> spec_reads{0};      // reads from epoch writes
};

class EpochService final : public shard::Lane {
 public:
  /// The service shares `cluster`'s network as one more client identity
  /// (its own ordinal namespace, disjoint from the driver's thread
  /// ordinals) and must be destroyed before the cluster.  `router` is the
  /// fleet's (must outlive the service).  `obs` may be null.
  EpochService(harness::Cluster& cluster, const shard::ShardRouter& router,
               QueueConfig config = {}, std::uint64_t seed = 1,
               obs::Observability* obs = nullptr);
  ~EpochService() override;

  EpochService(const EpochService&) = delete;
  EpochService& operator=(const EpochService&) = delete;

  shard::LaneOutcome submit(const ir::TxProgram& program,
                            const std::vector<ir::Record>& params,
                            const KeyFootprint& predicted,
                            acn::ExecStats& stats) override;

  /// Verification taps, forwarded to the epoch coordinator: `history`
  /// receives every epoch commit as one transaction (the epoch IS one
  /// serializable unit), `cross` every multi-group epoch decision.
  void set_logs(nesting::HistoryLog* history, nesting::CrossShardLog* cross);

  const ServiceStats& stats() const noexcept { return stats_; }
  const shard::CoordinatorStats& coordinator_stats() const noexcept {
    return coordinator_.stats();
  }

 private:
  struct Submission {
    const ir::TxProgram* program = nullptr;
    const std::vector<ir::Record>* params = nullptr;
    KeyFootprint footprint;
    EntryOutcome result;  // written by executors, read by the planner
    shard::LaneOutcome outcome = shard::LaneOutcome::kDemoted;
    int epoch_retries = 0;  // failed epoch attempts this entry sat through
    bool done = false;      // guarded by mu_
  };

  /// The epoch currently on the executor pool (guarded by epoch_mu_).
  struct ActiveEpoch {
    const EpochPlan* plan = nullptr;
    std::vector<Submission*>* batch = nullptr;
    Workspace* workspace = nullptr;
    std::vector<std::size_t> ready;
    std::vector<std::size_t> deps;  // working copy, decremented live
    std::size_t remaining = 0;
  };

  void planner_loop();
  void executor_loop();
  void run_one_epoch(std::vector<Submission*>& batch);
  /// Fetch every planned key into the workspace through `tx`: one batched
  /// quorum round per participating group.
  static void prefetch(const EpochPlan& plan, shard::ShardTx& tx,
                       Workspace& workspace);
  /// Run the planned entries over the executor pool; returns when all done.
  void execute(const EpochPlan& plan, std::vector<Submission*>& batch,
               Workspace& workspace);

  const QueueConfig config_;
  obs::Observability* const obs_;
  /// The epoch coordinator, on the service's own network identity (a
  /// client ordinal unique per service instance).
  shard::CrossShardCoordinator coordinator_;
  ServiceStats stats_;

  std::atomic<bool> stop_{false};

  // Submission side: pending queue + completion flags.
  std::mutex mu_;
  std::condition_variable submit_cv_;  // planner <- submitters
  std::condition_variable done_cv_;    // submitters <- planner
  std::deque<Submission*> pending_;

  // Execution side: the planner/executor handoff.
  std::mutex epoch_mu_;
  std::condition_variable work_cv_;        // executors <- planner
  std::condition_variable epoch_done_cv_;  // planner <- executors
  ActiveEpoch active_;
  bool epoch_live_ = false;

  std::thread planner_;
  std::vector<std::thread> executors_;
};

}  // namespace acn::queue
