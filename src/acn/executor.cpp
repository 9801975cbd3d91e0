#include "src/acn/executor.hpp"

#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "src/common/clock.hpp"
#include "src/common/retry_policy.hpp"

namespace acn {
namespace {

int abort_reason_index(dtm::AbortKind kind) noexcept {
  switch (kind) {
    case dtm::AbortKind::kValidation:
      return obs::kReasonValidation;
    case dtm::AbortKind::kBusy:
      return obs::kReasonBusy;
    case dtm::AbortKind::kUnavailable:
      return obs::kReasonUnavailable;
  }
  return obs::kReasonValidation;
}

void require(bool present, const char* what) {
  if (!present)
    throw std::invalid_argument(std::string("Executor::run: missing ") + what);
}

void execute_op(const ir::TxProgram& program, std::size_t op_index,
                ir::TxEnv& env, ExecStats& stats) {
  ++stats.ops_executed;
  env.execute(program.ops[op_index]);
}

/// A commit-phase abort counts as one; the caller classifies it.
void commit(nesting::TxContext& ctx, ExecStats& stats) {
  try {
    ctx.commit();
  } catch (const dtm::TxAbort&) {
    ++stats.aborts_at_commit;
    throw;
  }
}

}  // namespace

const char* protocol_name(Protocol protocol) {
  switch (protocol) {
    case Protocol::kFlat:
      return "QR-DTM";
    case Protocol::kManualCN:
      return "QR-CN";
    case Protocol::kAcn:
      return "QR-ACN";
    case Protocol::kCheckpoint:
      return "QR-CKPT";
  }
  return "?";
}

Executor::Executor(dtm::QuorumStub& stub, ExecutorConfig config,
                   std::uint64_t seed)
    : stub_(&stub), config_(config), rng_(seed) {}

Executor::Executor(ContextSource& source, ExecutorConfig config,
                   std::uint64_t seed)
    : source_(&source), config_(config), rng_(seed) {}

/// Per-Block op lists and batched-read plans.  They depend only on the
/// program and the sequence, not on runtime state, so run() builds them
/// once.  fetch[i] — Block i's reads a batched round can serve; spec[i] —
/// Block i+1's reads that are independent of everything Block i computes,
/// eligible to ride Block i's round speculatively.  Both stay empty without
/// batch_reads.
struct Executor::BlockPlan {
  std::vector<std::vector<std::size_t>> ops;
  std::vector<std::vector<std::size_t>> fetch;
  std::vector<std::vector<std::size_t>> spec;

  BlockPlan(const ir::TxProgram& program, const DependencyModel& model,
            const BlockSequence& sequence, const RunOptions& options)
      : ops(sequence.size()) {
    for (std::size_t i = 0; i < sequence.size(); ++i)
      ops[i] = block_ops(sequence[i], model);
    if (!options.batch_reads) return;
    fetch.resize(sequence.size());
    spec.resize(sequence.size());
    for (std::size_t i = 0; i < sequence.size(); ++i) {
      fetch[i] = batchable_remote_ops(program, ops[i]);
      if (options.prefetch && i + 1 < sequence.size())
        spec[i] = batchable_remote_ops(program, ops[i + 1], ops[i]);
    }
  }
};

/// Full-abort bookkeeping shared by every execution mode.
void Executor::note_full_abort(const dtm::TxAbort& abort, std::uint64_t tx) {
  if (gate_) gate_->on_full_abort(outcome_of(abort), abort.invalid());
  if (obs::Observability* obs = config_.obs) {
    const int reason = abort_reason_index(abort.kind());
    obs->tx_aborts_full.add();
    obs->aborts_full_reason[reason].add();
    obs->tracer.instant("abort.full", "abort", tx, nullptr, 0, nullptr, 0,
                        "reason", obs::abort_reason_name(reason));
  }
}

void Executor::run(Protocol protocol, const RunOptions& options,
                   const std::vector<ir::Record>& params, ExecStats& stats) {
  // The protocol's inputs, resolved once per run: under kAcn the Blocks
  // come from the controller's plan as published now and serve every
  // attempt, full restarts included.
  const ir::TxProgram* program = options.program;
  std::optional<BlockPlan> blocks;
  switch (protocol) {
    case Protocol::kFlat:
    case Protocol::kCheckpoint:
      require(program != nullptr, "program");
      break;
    case Protocol::kManualCN:
      require(program != nullptr, "program (kManualCN)");
      require(options.model != nullptr, "model (kManualCN)");
      require(options.sequence != nullptr, "sequence (kManualCN)");
      blocks.emplace(*program, *options.model, *options.sequence, options);
      break;
    case Protocol::kAcn: {
      require(options.controller != nullptr, "controller (kAcn)");
      const auto plan = options.controller->plan();
      program = &options.controller->algorithm().program();
      blocks.emplace(*program, plan->model, plan->sequence, options);
      break;
    }
    default:
      throw std::invalid_argument("Executor::run: unknown protocol");
  }

  // Arm the scheduler gate for this run: declare the predicted footprint
  // and block until admitted, and guarantee finish() on every exit path
  // (the guard's default outcome covers non-TxAbort exceptions too).
  struct GateGuard {
    Executor* executor;
    SchedulerGate* gate;
    TxOutcome outcome = TxOutcome::kUnavailable;
    ~GateGuard() {
      if (gate) gate->finish(outcome);
      executor->gate_ = nullptr;
    }
  } guard{this, options.scheduler};
  gate_ = options.scheduler;
  KeyFootprint predicted;
  if (gate_ != nullptr || source_ != nullptr)
    predicted = predicted_footprint(*program, params);
  if (gate_) gate_->admit(predicted);

  obs::Observability* const o = config_.obs;
  const Stopwatch tx_watch;
  for (int attempt = 0;; ++attempt) {
    const std::unique_ptr<nesting::TxContext> ctx = begin_attempt(predicted);
    ir::TxEnv env(*ctx, *program, params);
    obs::Tracer::Span tx_span;
    if (o)
      tx_span.restart(&o->tracer, "tx", "tx", ctx->id(), "attempt", attempt);
    try {
      if (blocks)
        run_blocks(*program, *blocks, *ctx, env, stats);
      else if (protocol == Protocol::kCheckpoint)
        run_checkpointed(*program, *ctx, env, stats);
      else
        run_flat(*program, *ctx, env, stats);
      ++stats.commits;
      if (o) {
        o->tx_commits.add();
        o->tx_latency_ns.observe(tx_watch.elapsed_ns());
      }
      guard.outcome = TxOutcome::kCommitted;
      return;
    } catch (const dtm::TxAbort& abort) {
      ctx->abort();
      ++stats.full_aborts;
      if (abort.kind() == dtm::AbortKind::kBusy) ++stats.aborts_busy;
      note_full_abort(abort, ctx->id());
      if (attempt >= config_.max_full_retries) {
        guard.outcome = outcome_of(abort);
        throw;
      }
      backoff(attempt);
    }
  }
}

void arm_transaction(nesting::Transaction& txn, const ExecutorConfig& config) {
  txn.set_obs(config.obs);
  if (ContentionMonitor* monitor = config.piggyback_monitor) {
    txn.set_contention_piggyback(
        monitor->classes(),
        [monitor](const std::vector<ir::ClassId>& classes,
                  const std::vector<std::uint64_t>& levels) {
          monitor->observe(classes, levels);
        });
  }
}

std::unique_ptr<nesting::TxContext> Executor::begin_attempt(
    const KeyFootprint& predicted) {
  if (source_ != nullptr) return source_->open(predicted, config_);
  auto txn = std::make_unique<nesting::Transaction>(*stub_,
                                                    nesting::next_tx_id());
  txn->set_history(config_.history);
  arm_transaction(*txn, config_);
  return txn;
}

void Executor::backoff(int attempt) {
  const RetryPolicy policy{.base = config_.backoff_base, .max_doublings = 6,
                           .jitter = 1.0};
  precise_sleep_for(policy.delay(attempt, rng_));
}

void Executor::batched_fetch(const ir::TxProgram& program,
                             nesting::TxContext& ctx, ir::TxEnv& env,
                             const std::vector<std::size_t>& group,
                             const std::vector<std::size_t>& speculative,
                             SpecBuffer& spec_buffer) {
  obs::Observability* const o = config_.obs;

  // Adopt what the previous Block prefetched for us into the fresh frame
  // (so staleness aborts partially, against this Block).  read_many below
  // then skips the adopted keys as already buffered.
  if (!spec_buffer.empty()) {
    std::size_t hits = 0;
    for (const auto& [key, record] : spec_buffer)
      if (ctx.adopt_read(key, record)) ++hits;
    if (o && hits > 0) o->prefetch_hits.add(hits);
    spec_buffer.clear();
  }

  if (group.empty() && speculative.empty()) return;
  // Key functions of batchable ops depend only on state computed before
  // this Block, so both key lists are evaluable right now.
  std::vector<ir::ObjectKey> keys;
  keys.reserve(group.size());
  for (std::size_t idx : group)
    keys.push_back(program.ops[idx].remote.key_fn(env));
  std::vector<ir::ObjectKey> spec_keys;
  spec_keys.reserve(speculative.size());
  for (std::size_t idx : speculative)
    spec_keys.push_back(program.ops[idx].remote.key_fn(env));
  spec_buffer = ctx.read_many(keys, spec_keys);
}

void Executor::run_flat(const ir::TxProgram& program, nesting::TxContext& ctx,
                        ir::TxEnv& env, ExecStats& stats) {
  for (std::size_t i = 0; i < program.ops.size(); ++i)
    execute_op(program, i, env, stats);
  commit(ctx, stats);
}

void Executor::run_blocks(const ir::TxProgram& program, const BlockPlan& plan,
                          nesting::TxContext& ctx, ir::TxEnv& env,
                          ExecStats& stats) {
  obs::Observability* const o = config_.obs;
  SpecBuffer spec_buffer;
  for (std::size_t position = 0; position < plan.ops.size(); ++position) {
    const std::size_t slot = std::min(position, ExecStats::kPositionSlots - 1);
    ir::TxEnv::Snapshot snapshot = env.snapshot();
    int partial_attempts = 0;
    for (;;) {
      ++stats.blocks_executed;
      obs::Tracer::Span block_span;
      obs::ScopedLatency block_latency;
      if (o) {
        o->blocks_executed.add();
        block_span.restart(&o->tracer, "block", "block", ctx.id(), "position",
                           static_cast<std::int64_t>(position));
        block_latency.arm(o->block_latency_ns);
      }
      ctx.begin_nested();
      try {
        if (!plan.fetch.empty())
          batched_fetch(program, ctx, env, plan.fetch[position],
                        plan.spec[position], spec_buffer);
        for (std::size_t op : plan.ops[position])
          execute_op(program, op, env, stats);
        ctx.commit_nested();
        break;
      } catch (const dtm::TxAbort& abort) {
        ++stats.aborts_in_execution;
        // Anything speculatively fetched during this attempt (for the next
        // Block) rides on a snapshot that just proved stale or never got
        // consumed consistently — discard it; the retry (or the restart)
        // re-fetches.
        if (!spec_buffer.empty()) {
          if (o) o->prefetch_wasted.add(spec_buffer.size());
          spec_buffer.clear();
        }
        const bool partial =
            ctx.classify(abort) == nesting::AbortScope::kPartial &&
            partial_attempts < config_.max_partial_retries;
        ctx.abort_nested();
        if (!partial) {
          ++stats.fulls_at_position[slot];
          throw;  // escalate to a full restart
        }
        ++stats.partial_aborts;
        ++stats.partials_at_position[slot];
        ++partial_attempts;
        if (o) {
          const int reason = abort_reason_index(abort.kind());
          o->tx_aborts_partial.add();
          o->aborts_partial_reason[reason].add();
          o->tracer.instant("abort.partial", "abort", ctx.id(), "position",
                            static_cast<std::int64_t>(position), nullptr, 0,
                            "reason", obs::abort_reason_name(reason));
        }
        env.restore(snapshot);
        if (abort.kind() == dtm::AbortKind::kBusy) backoff(partial_attempts);
      }
    }
  }
  commit(ctx, stats);
}

void Executor::run_checkpointed(const ir::TxProgram& program,
                                nesting::TxContext& ctx, ir::TxEnv& env,
                                ExecStats& stats) {
  obs::Observability* const o = config_.obs;
  // Per context checkpoint: the op it precedes and the variable state.
  std::vector<std::pair<std::size_t, ir::TxEnv::Snapshot>> checkpoints;
  std::unordered_map<ir::ObjectKey, std::size_t, store::ObjectKeyHash>
      first_read_at;
  int restores = 0;
  std::size_t resume_op = 0;

  // Roll back to the checkpoint preceding the first read of any
  // invalidated object.  Objects never seen (e.g. the busy target of the
  // read in flight) roll back to the latest checkpoint.  Returns false
  // when a full restart is required.
  auto try_restore = [&](const dtm::TxAbort& abort) {
    if (checkpoints.empty() || restores >= config_.max_partial_retries)
      return false;
    std::size_t target = checkpoints.size() - 1;
    for (const auto& key : abort.invalid()) {
      const auto it = first_read_at.find(key);
      if (it != first_read_at.end()) target = std::min(target, it->second);
    }
    if (!ctx.restore_checkpoint(target)) return false;
    resume_op = checkpoints[target].first;
    env.restore(std::move(checkpoints[target].second));
    checkpoints.resize(target);  // re-pushed when resume_op re-executes
    std::erase_if(first_read_at,
                  [&](const auto& entry) { return entry.second >= target; });
    ++stats.checkpoint_restores;
    ++restores;
    if (o)
      o->tracer.instant("checkpoint.restore", "abort", ctx.id(), "resume_op",
                        static_cast<std::int64_t>(resume_op));
    if (abort.kind() == dtm::AbortKind::kBusy) backoff(restores);
    return true;
  };

  std::size_t op = 0;
  for (;;) {
    try {
      if (op < program.ops.size()) {
        const ir::Op& current = program.ops[op];
        if (current.is_remote()) {
          checkpoints.emplace_back(op, env.snapshot());
          ctx.checkpoint();
          ++stats.checkpoints_taken;
        }
        execute_op(program, op, env, stats);
        if (current.is_remote())
          first_read_at.emplace(env.key_of(current.remote.out),
                                checkpoints.size() - 1);
        ++op;
      } else {
        ctx.commit();
        return;
      }
    } catch (const dtm::TxAbort& abort) {
      if (op < program.ops.size())
        ++stats.aborts_in_execution;
      else
        ++stats.aborts_at_commit;
      if (!try_restore(abort)) throw;
      op = resume_op;
    }
  }
}

}  // namespace acn
