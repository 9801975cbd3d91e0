// Executor Engine (Section V-B): runs a TxProgram to commit under one of
// the protocols the paper evaluates, behind a single entry point:
//
//   executor.run(protocol, options, params, stats)
//
//   * Protocol::kFlat       — QR-DTM: all operations in the parent context;
//                             any conflict restarts the whole transaction.
//   * Protocol::kManualCN   — QR-CN: a fixed Block Sequence (the
//                             programmer's manual decomposition); each Block
//                             executes as a closed-nested transaction,
//                             partial aborts retry the Block only.
//   * Protocol::kAcn        — QR-ACN: like kManualCN, but the sequence comes
//                             from the AdaptiveController: run() takes the
//                             published plan once and keeps it across full
//                             restarts; the next run() picks up a newer
//                             composition.
//   * Protocol::kCheckpoint — QR-CKPT: checkpoint-based partial rollback
//                             (the Section III alternative to nesting).
//
// RunOptions also switches on the batched read pipeline: with batch_reads,
// the remote accesses of a Block whose key dependencies are satisfied at
// Block entry are fetched through ONE read_many quorum round instead of N
// sequential reads; with prefetch, the next Block's independent reads ride
// the same round speculatively and are adopted when that Block starts (or
// discarded, if a partial abort intervenes — speculation never weakens the
// partial-rollback classification, because adopted reads live in the
// adopting Block's own frame).
//
// Partial rollback mechanics: before a Block starts, the executor snapshots
// the variable environment; a partial abort pops the nested frame (discarding
// the Block's read/write-set entries), restores the snapshot and re-executes
// just that Block.  An abort touching merged history escalates to a full
// restart with randomized exponential backoff.
//
// Every protocol runs in one attempt loop over a nesting::TxContext: begin
// a context, run the protocol's body in it, count the commit, or report the
// full abort and back off.  An Executor built over a QuorumStub runs each
// attempt in a nesting::Transaction on that quorum group; one built over a
// ContextSource (shard::CrossShardCoordinator) runs it in whatever context
// the source opens — a ShardTx, which routes each access to a
// nesting::Transaction on the key's group and commits them together (one
// group: that Transaction's own commit; several: 2PC).  Either way every
// Transaction is armed by arm_transaction().
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>

#include "src/acn/controller.hpp"
#include "src/acn/footprint.hpp"
#include "src/acn/txir.hpp"
#include "src/nesting/transaction.hpp"

namespace acn {

/// The execution protocols under evaluation (Figure 4's series).
enum class Protocol {
  kFlat,        // QR-DTM
  kManualCN,    // QR-CN
  kAcn,         // QR-ACN
  kCheckpoint,  // QR-CKPT: fine-grained checkpoint partial rollback
};

const char* protocol_name(Protocol protocol);

struct ExecStats {
  std::uint64_t commits = 0;
  std::uint64_t full_aborts = 0;
  std::uint64_t partial_aborts = 0;
  std::uint64_t ops_executed = 0;
  std::uint64_t blocks_executed = 0;
  // Abort breakdown (full + partial):
  std::uint64_t aborts_at_commit = 0;    // raised by the final 2PC
  std::uint64_t aborts_in_execution = 0; // raised by a read mid-transaction
  std::uint64_t aborts_busy = 0;         // kind == kBusy (protect conflicts)
  // Checkpointing executor:
  std::uint64_t checkpoints_taken = 0;
  std::uint64_t checkpoint_restores = 0;

  /// Where in the Block Sequence aborts surface (position clamped to the
  /// last slot).  Under a well-adapted plan the partial aborts concentrate
  /// in the final (hottest) block — the signature of Section III's
  /// code-repositioning argument.
  static constexpr std::size_t kPositionSlots = 12;
  std::uint64_t partials_at_position[kPositionSlots] = {};
  std::uint64_t fulls_at_position[kPositionSlots] = {};

  void merge(const ExecStats& other) noexcept {
    commits += other.commits;
    full_aborts += other.full_aborts;
    partial_aborts += other.partial_aborts;
    ops_executed += other.ops_executed;
    blocks_executed += other.blocks_executed;
    aborts_at_commit += other.aborts_at_commit;
    aborts_in_execution += other.aborts_in_execution;
    aborts_busy += other.aborts_busy;
    checkpoints_taken += other.checkpoints_taken;
    checkpoint_restores += other.checkpoint_restores;
    for (std::size_t i = 0; i < kPositionSlots; ++i) {
      partials_at_position[i] += other.partials_at_position[i];
      fulls_at_position[i] += other.fulls_at_position[i];
    }
  }
};

struct ExecutorConfig {
  /// Partial retries of one Block before escalating to a full restart.
  int max_partial_retries = 64;
  /// Full restarts before giving up (throwing the last TxAbort).
  int max_full_retries = 1 << 20;
  /// Base of the randomized exponential backoff after a full abort.
  std::chrono::nanoseconds backoff_base{std::chrono::microseconds{20}};
  /// When set, every remote read piggybacks a contention query for the
  /// monitor's classes and feeds the reply into it (Section V-C2's
  /// "meta-data coupled with existing network messages").  The monitor
  /// must outlive the executor; it is thread-safe and may be shared.
  ContentionMonitor* piggyback_monitor = nullptr;
  /// When set, committed transactions are appended here for offline
  /// serializability checking (nesting::check_serializable).
  nesting::HistoryLog* history = nullptr;
  /// When set, sharded clients log every multi-group 2PC decision here for
  /// offline cross-shard atomicity checking
  /// (nesting::check_cross_shard_atomicity).  Single-group executors
  /// ignore it.
  nesting::CrossShardLog* cross_log = nullptr;
  /// When set, the executor records tx/Block trace spans and the
  /// commit/abort counters (split partial vs full, by reason code), and
  /// arms the transaction + stub-level instrumentation.  Null = off.
  obs::Observability* obs = nullptr;
};

/// Inputs of one run() call.  Which fields are required depends on the
/// protocol: program for kFlat/kCheckpoint; program+model+sequence for
/// kManualCN; controller for kAcn (see the with_* builders below).  The
/// rest are cross-protocol toggles.
struct RunOptions {
  const ir::TxProgram* program = nullptr;
  const DependencyModel* model = nullptr;
  const BlockSequence* sequence = nullptr;
  AdaptiveController* controller = nullptr;
  /// Fetch a Block's independent remote reads through one batched quorum
  /// round (kManualCN/kAcn; flat and checkpointed execution has no Block
  /// structure to exploit and ignores it).
  bool batch_reads = false;
  /// With batch_reads: speculatively fetch the next Block's independent
  /// reads in the same round; speculation is discarded on partial abort.
  bool prefetch = false;
  /// When set, the run is gated through the contention-aware scheduler:
  /// admit(predicted_footprint) before the first attempt, on_full_abort on
  /// every full abort, finish when the run ends either way.  The gate is
  /// typically one sched::TxScheduler::Session per client thread.
  SchedulerGate* scheduler = nullptr;
};

// RunOptions builders for the common protocol shapes.  The caller keeps the
// referenced program/model/sequence/controller alive for the run:
//
//   executor.run(Protocol::kFlat, with_program(program), params, stats);
//   executor.run(Protocol::kManualCN,
//                with_blocks(program, model, sequence), params, stats);
//   executor.run(Protocol::kAcn, with_controller(controller), params, stats);

/// kFlat / kCheckpoint inputs (both execute the raw program).
inline RunOptions with_program(const ir::TxProgram& program) {
  RunOptions options;
  options.program = &program;
  return options;
}

/// kManualCN inputs: a fixed decomposition (`sequence` valid for `model`).
inline RunOptions with_blocks(const ir::TxProgram& program,
                              const DependencyModel& model,
                              const BlockSequence& sequence) {
  RunOptions options;
  options.program = &program;
  options.model = &model;
  options.sequence = &sequence;
  return options;
}

/// kAcn inputs: the sequence is the controller's plan when run() starts.
inline RunOptions with_controller(AdaptiveController& controller) {
  RunOptions options;
  options.controller = &controller;
  return options;
}

/// Arm `txn` with the config's obs bundle and contention piggyback: what
/// every Transaction an attempt runs in gets, whether the Executor opened
/// it over its stub or a ShardTx opened it on a group.
void arm_transaction(nesting::Transaction& txn, const ExecutorConfig& config);

/// Where an Executor's attempts get their transactional context, when it
/// is not a nesting::Transaction on one quorum group.
class ContextSource {
 public:
  virtual ~ContextSource() = default;

  /// A fresh context for one attempt; `predicted` is the transaction's
  /// predicted footprint (it picks the route plan a cross-shard context
  /// starts from).  `config` is the run's config, alive for the attempt:
  /// the context arms its Transactions with it (arm_transaction).
  virtual std::unique_ptr<nesting::TxContext> open(
      const KeyFootprint& predicted, const ExecutorConfig& config) = 0;
};

class Executor {
 public:
  /// Attempts run in nesting::Transactions over `stub`, armed with the
  /// config's history log, obs bundle and contention piggyback.
  Executor(dtm::QuorumStub& stub, ExecutorConfig config, std::uint64_t seed);
  /// Attempts run in the contexts `source` opens (which must outlive the
  /// executor).
  Executor(ContextSource& source, ExecutorConfig config, std::uint64_t seed);

  /// Unified entry point: execute one transaction to commit under
  /// `protocol`.  Throws std::invalid_argument when `options` lacks the
  /// protocol's inputs, and the last dtm::TxAbort when max_full_retries is
  /// exhausted.
  void run(Protocol protocol, const RunOptions& options,
           const std::vector<ir::Record>& params, ExecStats& stats);

 private:
  using SpecBuffer = std::vector<std::pair<ir::ObjectKey, dtm::VersionedRecord>>;
  struct BlockPlan;

  /// A fresh context for one attempt: from source_, or a Transaction over
  /// stub_ armed with the config's history (and arm_transaction).
  std::unique_ptr<nesting::TxContext> begin_attempt(
      const KeyFootprint& predicted);

  // The protocol bodies: run one attempt in `ctx` through its commit.
  void run_flat(const ir::TxProgram& program, nesting::TxContext& ctx,
                ir::TxEnv& env, ExecStats& stats);
  void run_blocks(const ir::TxProgram& program, const BlockPlan& plan,
                  nesting::TxContext& ctx, ir::TxEnv& env, ExecStats& stats);
  void run_checkpointed(const ir::TxProgram& program, nesting::TxContext& ctx,
                        ir::TxEnv& env, ExecStats& stats);

  /// The batched fetch stage at Block entry: adopt what the previous Block
  /// prefetched into the fresh frame, then fetch `group` (this Block's
  /// independent reads) plus `speculative` (the next Block's) in one
  /// read_many round, leaving the speculative records in `spec_buffer`.
  void batched_fetch(const ir::TxProgram& program, nesting::TxContext& ctx,
                     ir::TxEnv& env, const std::vector<std::size_t>& group,
                     const std::vector<std::size_t>& speculative,
                     SpecBuffer& spec_buffer);

  void backoff(int attempt);
  /// Report one full abort to obs and to the scheduler gate, if armed.
  void note_full_abort(const dtm::TxAbort& abort, std::uint64_t tx);

  dtm::QuorumStub* stub_ = nullptr;
  ContextSource* source_ = nullptr;
  ExecutorConfig config_;
  Rng rng_;
  /// The active run's scheduler gate (null between runs / when unused).
  SchedulerGate* gate_ = nullptr;
};

}  // namespace acn
