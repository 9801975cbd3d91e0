#include "src/queue/service.hpp"

#include <algorithm>
#include <utility>

#include "src/common/clock.hpp"
#include "src/common/retry_policy.hpp"

namespace acn::queue {
namespace {

/// Ordinal namespace for epoch services: far above the driver's per-thread
/// client ordinals, unique per service so two lanes on one cluster can
/// never share a network identity or a TxId namespace.
int next_service_ordinal() {
  static std::atomic<int> seq{0};
  return 0x5EE0 + seq.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

EpochService::EpochService(harness::Cluster& cluster,
                           const shard::ShardRouter& router,
                           QueueConfig config, std::uint64_t seed,
                           obs::Observability* obs)
    : config_(config),
      obs_(obs),
      coordinator_(cluster, router, next_service_ordinal(), seed ^ 0xE90CULL) {
  const std::size_t n_executors = std::max<std::size_t>(1, config_.n_executors);
  executors_.reserve(n_executors);
  for (std::size_t i = 0; i < n_executors; ++i)
    executors_.emplace_back([this] { executor_loop(); });
  planner_ = std::thread([this] { planner_loop(); });
}

EpochService::~EpochService() {
  stop_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    submit_cv_.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    work_cv_.notify_all();
  }
  planner_.join();
  for (std::thread& t : executors_) t.join();
  // The planner drains pending submissions as demotions on stop, so no
  // submitter can be left waiting (defensively — the driver joins its
  // client threads before the bench tears the fleet down).
}

void EpochService::set_logs(nesting::HistoryLog* history,
                            nesting::CrossShardLog* cross) {
  coordinator_.set_logs(history, cross);
}

shard::LaneOutcome EpochService::submit(const ir::TxProgram& program,
                                        const std::vector<ir::Record>& params,
                                        const KeyFootprint& predicted,
                                        acn::ExecStats& stats) {
  Submission submission;
  submission.program = &program;
  submission.params = &params;
  submission.footprint = predicted;
  stats_.submitted.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_.load(std::memory_order_relaxed))
      return shard::LaneOutcome::kDemoted;
    pending_.push_back(&submission);
  }
  submit_cv_.notify_one();

  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return submission.done; });

  // Failed epoch attempts re-executed this entry; account them as the full
  // aborts they are, so queue-mode abort numbers stay honest.
  stats.full_aborts +=
      static_cast<std::uint64_t>(std::max(0, submission.epoch_retries));
  if (submission.outcome == shard::LaneOutcome::kCommitted) {
    ++stats.commits;
    ++stats.blocks_executed;  // the epoch ran the program as one window
    stats.ops_executed += submission.result.ops;
  }
  return submission.outcome;
}

void EpochService::planner_loop() {
  tighten_timer_slack();  // epoch_wait is a timed wait of ~200 us
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    submit_cv_.wait(lock, [&] {
      return stop_.load(std::memory_order_relaxed) || !pending_.empty();
    });
    if (stop_.load(std::memory_order_relaxed)) break;
    // Let the epoch fill: cut at epoch_max, or when the wait expires with
    // whatever arrived.
    const auto deadline = std::chrono::steady_clock::now() + config_.epoch_wait;
    submit_cv_.wait_until(lock, deadline, [&] {
      return stop_.load(std::memory_order_relaxed) ||
             pending_.size() >= config_.epoch_max;
    });
    if (stop_.load(std::memory_order_relaxed)) break;

    const std::size_t take = std::min(pending_.size(), config_.epoch_max);
    std::vector<Submission*> batch(pending_.begin(),
                                   pending_.begin() + static_cast<long>(take));
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<long>(take));
    lock.unlock();
    run_one_epoch(batch);
    lock.lock();
    for (Submission* s : batch) s->done = true;
    done_cv_.notify_all();
  }
  // Drain on stop: everything still pending demotes (submit() reruns it
  // optimistically — or, in the teardown case, nobody is waiting).
  for (Submission* s : pending_) {
    s->outcome = shard::LaneOutcome::kDemoted;
    s->done = true;
  }
  pending_.clear();
  done_cv_.notify_all();
}

void EpochService::prefetch(const EpochPlan& plan, shard::ShardTx& tx,
                            Workspace& workspace) {
  std::vector<store::ObjectKey> keys;
  keys.reserve(plan.footprint.size());
  for (const FootprintEntry& entry : plan.footprint) keys.push_back(entry.key);
  for (;;) {
    try {
      for (auto& [key, record] : tx.read_many({}, keys))
        workspace.cache[key] = std::move(record);
      return;
    } catch (const dtm::ObjectMissing& missing) {
      // A planned key no replica holds (a blind-insert target): mark it
      // absent, so reading it demotes, and refetch the rest.
      if (std::erase(keys, missing.key()) == 0) throw;
      workspace.absent.insert(missing.key());
    }
  }
}

void EpochService::execute(const EpochPlan& plan,
                           std::vector<Submission*>& batch,
                           Workspace& workspace) {
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    active_.plan = &plan;
    active_.batch = &batch;
    active_.workspace = &workspace;
    active_.ready = plan.roots();
    active_.deps = plan.deps;
    active_.remaining = batch.size();
    epoch_live_ = true;
  }
  work_cv_.notify_all();
  std::unique_lock<std::mutex> lock(epoch_mu_);
  epoch_done_cv_.wait(lock, [&] { return active_.remaining == 0; });
  epoch_live_ = false;
}

void EpochService::executor_loop() {
  tighten_timer_slack();
  std::unique_lock<std::mutex> lock(epoch_mu_);
  for (;;) {
    work_cv_.wait(lock, [&] {
      return stop_.load(std::memory_order_relaxed) ||
             (epoch_live_ && !active_.ready.empty());
    });
    if (stop_.load(std::memory_order_relaxed)) return;
    const std::size_t index = active_.ready.back();
    active_.ready.pop_back();
    const EpochPlan& plan = *active_.plan;
    Workspace& workspace = *active_.workspace;
    Submission& entry = *(*active_.batch)[index];
    lock.unlock();
    EntryOutcome out =
        run_entry(*entry.program, *entry.params, entry.footprint, workspace);
    lock.lock();
    entry.result = out;
    // Completion (committed OR demoted) unblocks the queue successors —
    // a demoted entry published nothing, so they read pre-epoch state.
    for (const std::size_t dependent : plan.dependents[index]) {
      if (--active_.deps[dependent] == 0) {
        active_.ready.push_back(dependent);
        work_cv_.notify_one();
      }
    }
    if (--active_.remaining == 0) epoch_done_cv_.notify_all();
  }
}

void EpochService::run_one_epoch(std::vector<Submission*>& batch) {
  std::vector<const KeyFootprint*> footprints;
  footprints.reserve(batch.size());
  for (const Submission* s : batch) footprints.push_back(&s->footprint);
  const EpochPlan plan = plan_epoch(footprints);

  stats_.epochs.fetch_add(1, std::memory_order_relaxed);
  if (obs_) {
    obs_->queue_epochs.add();
    obs_->queue_epoch_size.observe(batch.size());
  }

  // Epoch re-runs back off deterministically: no jitter, 4 doublings.
  const RetryPolicy retry{.base = config_.retry_backoff, .max_doublings = 4,
                          .jitter = 0.0};
  bool epoch_decided = false;
  int retries_used = 0;
  for (int attempt = 0; attempt <= config_.max_epoch_retries; ++attempt) {
    Workspace workspace;
    for (Submission* s : batch) s->result = {};
    try {
      shard::ShardTx tx = coordinator_.begin(plan.footprint);
      prefetch(plan, tx, workspace);
      execute(plan, batch, workspace);
      if (workspace.written.empty() && workspace.reads_used.empty()) {
        // Every entry demoted — nothing to decide.
        tx.abort();
        epoch_decided = true;
        break;
      }
      // The epoch's read set is the prefetched versions its committed
      // entries consumed; its writes are the queue order's final values
      // (a read key keeps its read version for the prepare).
      for (const auto& [key, record] : workspace.reads_used)
        tx.adopt_read(key, record);
      for (const auto& [key, value] : workspace.written) tx.insert(key, value);
      // ONE decision for the whole epoch: single-group epochs take the
      // classic prepare+commit, multi-group epochs cross-shard 2PC with
      // decision records and in-doubt parking — all inherited.
      tx.commit();
      epoch_decided = true;
      break;
    } catch (const dtm::TxAbort&) {
      // The prefetched snapshot went stale (optimistic traffic in hybrid
      // mode, chaos) or the cluster was busy/unreachable.  Refetch and
      // re-run the whole epoch: execution is deterministic, so the re-run
      // reproduces the same queue order over the fresh snapshot.
      ++retries_used;
      stats_.epoch_retries.fetch_add(1, std::memory_order_relaxed);
      if (obs_) obs_->queue_epoch_retries.add();
      for (Submission* s : batch) ++s->epoch_retries;
      if (attempt >= config_.max_epoch_retries) break;
      precise_sleep_for(retry.delay(attempt));
    }
  }

  for (Submission* s : batch) {
    const bool committed = epoch_decided && s->result.committed;
    s->outcome = committed ? shard::LaneOutcome::kCommitted
                           : shard::LaneOutcome::kDemoted;
    if (committed) {
      stats_.committed.fetch_add(1, std::memory_order_relaxed);
      stats_.spec_reads.fetch_add(s->result.spec_reads,
                                  std::memory_order_relaxed);
      if (obs_) {
        obs_->queue_spec_commits.add();
        obs_->queue_spec_reads.add(s->result.spec_reads);
      }
    } else {
      stats_.demoted.fetch_add(1, std::memory_order_relaxed);
      if (obs_) obs_->queue_spec_demotions.add();
      if (s->result.mispredicted) {
        stats_.mispredicted.fetch_add(1, std::memory_order_relaxed);
        if (obs_) obs_->queue_spec_mispredicts.add();
      }
    }
  }
  if (epoch_decided) {
    stats_.epoch_commits.fetch_add(1, std::memory_order_relaxed);
    if (obs_) obs_->queue_epoch_commits.add();
  }
}

}  // namespace acn::queue
