// Executor Engine tests: flat vs block execution equivalence (property test
// over random valid Block Sequences), deterministic partial-rollback and
// full-abort paths (with an in-program saboteur committing conflicting
// writes), escalation limits, and adaptive plan switching.  Every sabotage
// scenario runs twice — over the group's stub (nesting::Transaction) and
// over a CrossShardCoordinator (shard::ShardTx) — and both contexts must
// produce the same ExecStats.
#include <gtest/gtest.h>

#include <memory>

#include "src/acn/executor.hpp"
#include "src/harness/cluster.hpp"
#include "src/shard/coordinator.hpp"
#include "src/workloads/bank.hpp"

namespace acn {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using ir::ProgramBuilder;
using ir::Record;
using ir::TxEnv;
using ir::TxProgram;
using ir::VarId;
using store::ObjectKey;

ClusterConfig fast_config(std::size_t n = 5) {
  ClusterConfig config;
  config.n_servers = n;
  config.base_latency = std::chrono::nanoseconds{0};
  config.stub.retry.base = std::chrono::nanoseconds{100};
  return config;
}

ExecutorConfig fast_executor() {
  ExecutorConfig config;
  config.backoff_base = std::chrono::nanoseconds{100};
  return config;
}

const ObjectKey kA{1, 0};
const ObjectKey kB{2, 0};
const ObjectKey kC{3, 0};

/// Random valid sequence: random topological order of units, then random
/// adjacent merges (merging neighbours of a valid sequence stays valid).
BlockSequence random_valid_sequence(const DependencyModel& model, Rng& rng) {
  const std::size_t n = model.units.size();
  std::vector<std::size_t> indegree(n, 0);
  for (std::size_t u = 0; u < n; ++u)
    for (std::size_t v : model.succs[u]) ++indegree[v];
  std::vector<std::size_t> ready;
  for (std::size_t u = 0; u < n; ++u)
    if (indegree[u] == 0) ready.push_back(u);
  BlockSequence seq;
  while (!ready.empty()) {
    const std::size_t pick = rng.uniform(0, ready.size() - 1);
    const std::size_t u = ready[pick];
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(pick));
    seq.push_back({{u}});
    for (std::size_t v : model.succs[u])
      if (--indegree[v] == 0) ready.push_back(v);
  }
  for (std::size_t i = seq.size() - 1; i > 0; --i) {
    if (rng.bernoulli(0.4)) {
      seq[i - 1].units.insert(seq[i - 1].units.end(), seq[i].units.begin(),
                              seq[i].units.end());
      seq.erase(seq.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  return seq;
}

TEST(Executor, FlatRunCommitsEffects) {
  Cluster cluster(fast_config());
  workloads::Bank bank({.n_branches = 4, .n_accounts = 8});
  bank.seed(cluster.servers());
  auto stub = cluster.make_stub(0);
  Executor executor(stub, fast_executor(), 1);

  ExecStats stats;
  const std::vector<Record> params{Record{1}, Record{2}, Record{0}, Record{3},
                                   Record{7}};
  executor.run(Protocol::kFlat, with_program(*bank.profiles()[0].program),
               params, stats);
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.full_aborts, 0u);

  const auto servers = cluster.servers();
  EXPECT_EQ(
      workloads::latest_value(servers, workloads::Bank::account_key(1)).value[0],
      10'000 - 7);
  EXPECT_EQ(
      workloads::latest_value(servers, workloads::Bank::account_key(2)).value[0],
      10'000 + 7);
  EXPECT_EQ(
      workloads::latest_value(servers, workloads::Bank::branch_key(0)).value[0],
      10'000 - 7);
  EXPECT_EQ(
      workloads::latest_value(servers, workloads::Bank::branch_key(3)).value[0],
      10'000 + 7);
  bank.check_invariants(servers);
}

TEST(Executor, AnyValidBlockSequenceMatchesFlatExecution) {
  // Property: for the bank transfer, every valid Block Sequence commits the
  // same final state the flat execution does.
  workloads::Bank bank({.n_branches = 4, .n_accounts = 8});
  const auto& profile = bank.profiles()[0];
  const std::vector<Record> params{Record{5}, Record{6}, Record{1}, Record{2},
                                   Record{13}};

  // Reference: flat run.
  std::vector<store::Record> expected;
  {
    Cluster cluster(fast_config());
    bank.seed(cluster.servers());
    auto stub = cluster.make_stub(0);
    Executor executor(stub, fast_executor(), 1);
    ExecStats stats;
    executor.run(Protocol::kFlat, with_program(*profile.program), params, stats);
    for (const auto& key :
         {workloads::Bank::account_key(5), workloads::Bank::account_key(6),
          workloads::Bank::branch_key(1), workloads::Bank::branch_key(2)})
      expected.push_back(workloads::latest_value(cluster.servers(), key).value);
  }

  Rng rng(99);
  for (int trial = 0; trial < 12; ++trial) {
    const auto seq = random_valid_sequence(profile.static_model, rng);
    ASSERT_TRUE(sequence_valid(seq, profile.static_model));
    Cluster cluster(fast_config());
    bank.seed(cluster.servers());
    auto stub = cluster.make_stub(0);
    Executor executor(stub, fast_executor(), 1);
    ExecStats stats;
    executor.run(Protocol::kManualCN,
                 with_blocks(*profile.program, profile.static_model, seq),
                 params, stats);
    EXPECT_EQ(stats.commits, 1u);
    std::size_t i = 0;
    for (const auto& key :
         {workloads::Bank::account_key(5), workloads::Bank::account_key(6),
          workloads::Bank::branch_key(1), workloads::Bank::branch_key(2)}) {
      EXPECT_EQ(workloads::latest_value(cluster.servers(), key).value,
                expected[i++])
          << "trial " << trial << " key " << store::to_string(key);
    }
  }
}

/// Program with a saboteur: block {B, C} where a local op between the two
/// reads commits a conflicting write through a second client, a controlled
/// number of times.  With `at_commit` the saboteur runs after read C
/// instead, so only the commit's final validation sees the conflict.
struct SabotageRig {
  Cluster cluster{fast_config()};
  std::unique_ptr<dtm::QuorumStub> saboteur_stub;
  std::shared_ptr<int> fires = std::make_shared<int>(0);
  TxProgram program;
  DependencyModel model;
  BlockSequence sequence;

  SabotageRig(ObjectKey victim, int n_fires, bool at_commit) {
    workloads::seed_all(cluster.servers(), kA, Record{100});
    workloads::seed_all(cluster.servers(), kB, Record{200});
    workloads::seed_all(cluster.servers(), kC, Record{300});
    saboteur_stub = std::make_unique<dtm::QuorumStub>(cluster.make_stub(9));
    *fires = n_fires;

    ProgramBuilder b("sabotaged", 0);
    const VarId a = b.remote_read(
        1, {}, [](const TxEnv&) { return kA; }, "read A");
    const VarId bb = b.remote_read(
        2, {a}, [](const TxEnv&) { return kB; }, "read B");
    auto* stub = saboteur_stub.get();
    auto counter = fires;
    const auto sabotage = [stub, counter, victim](TxEnv&) {
      if (*counter <= 0) return;
      --*counter;
      nesting::Transaction txn(*stub, nesting::next_tx_id());
      const Record v = txn.read(victim);
      txn.write(victim, Record{v[0] + 1});
      txn.commit();
    };
    if (!at_commit) b.local({bb}, {}, sabotage, "sabotage");
    const VarId c =
        b.remote_read(3, {bb}, [](const TxEnv&) { return kC; }, "read C");
    if (at_commit) b.local({c}, {}, sabotage, "sabotage");
    program = b.build();
    model = build_dependency_model(program, AttachPolicy::kLatestProducer);
    // Blocks: {U_A} then {U_B(+sabotage), U_C} — conflict detected by
    // read C's incremental validation while the second block executes.
    if (model.units.size() != 3u)
      throw std::logic_error("SabotageRig: unexpected unit count");
    sequence = {Block{{0}}, Block{{1, 2}}};
    if (!sequence_valid(sequence, model))
      throw std::logic_error("SabotageRig: invalid sequence");
  }
};

struct Sabotage {
  ObjectKey victim;
  int fires = 0;
  Protocol protocol = Protocol::kManualCN;
  ExecutorConfig config = fast_executor();
  /// kManualCN: run all three units as one Block instead of two.
  bool one_block = false;
  /// The conflict surfaces at commit, not at a read (SabotageRig).
  bool at_commit = false;
};

void expect_same_stats(const ExecStats& group, const ExecStats& cross) {
  EXPECT_EQ(cross.commits, group.commits);
  EXPECT_EQ(cross.full_aborts, group.full_aborts);
  EXPECT_EQ(cross.partial_aborts, group.partial_aborts);
  EXPECT_EQ(cross.ops_executed, group.ops_executed);
  EXPECT_EQ(cross.blocks_executed, group.blocks_executed);
  EXPECT_EQ(cross.aborts_at_commit, group.aborts_at_commit);
  EXPECT_EQ(cross.aborts_in_execution, group.aborts_in_execution);
  EXPECT_EQ(cross.aborts_busy, group.aborts_busy);
  EXPECT_EQ(cross.checkpoints_taken, group.checkpoints_taken);
  EXPECT_EQ(cross.checkpoint_restores, group.checkpoint_restores);
  for (std::size_t i = 0; i < ExecStats::kPositionSlots; ++i) {
    EXPECT_EQ(cross.partials_at_position[i], group.partials_at_position[i]);
    EXPECT_EQ(cross.fulls_at_position[i], group.fulls_at_position[i]);
  }
}

/// Runs the sabotaged program on a fresh rig through an Executor over the
/// group's stub, and on another through an Executor over a single-group
/// CrossShardCoordinator, whose attempts run in ShardTxs.  Both runs must
/// give the same ExecStats; returns them.
ExecStats run_sabotaged(const Sabotage& sabotage) {
  ExecStats stats[2];
  for (const bool cross_shard : {false, true}) {
    SabotageRig rig(sabotage.victim, sabotage.fires, sabotage.at_commit);
    if (sabotage.one_block) rig.sequence = {Block{{0, 1, 2}}};
    const RunOptions options =
        sabotage.protocol == Protocol::kManualCN
            ? with_blocks(rig.program, rig.model, rig.sequence)
            : with_program(rig.program);
    auto stub = rig.cluster.make_stub(0);
    const shard::ShardMap map(shard::ShardMapConfig{});
    const shard::ShardRouter router(map);
    shard::CrossShardCoordinator coordinator(rig.cluster, router, 0);
    Executor executor =
        cross_shard ? Executor(coordinator, sabotage.config, 1)
                    : Executor(stub, sabotage.config, 1);
    executor.run(sabotage.protocol, options, {}, stats[cross_shard]);
  }
  expect_same_stats(stats[0], stats[1]);
  return stats[0];
}

TEST(Executor, PartialRollbackRetriesOnlyTheBlock) {
  // Victim first-read in the current block.
  const ExecStats stats = run_sabotaged({.victim = kB, .fires = 1});
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.partial_aborts, 1u);
  EXPECT_EQ(stats.full_aborts, 0u);
  // Block 0 ran once (1 op); block 1 ran twice (3 ops each).
  EXPECT_EQ(stats.ops_executed, 1u + 3u + 3u);
  EXPECT_EQ(stats.blocks_executed, 1u + 2u);
}

TEST(Executor, SingleBlockPlanRetriesInPlace) {
  // One Block holds every read, so any stale read is the Block's own.
  const ExecStats stats =
      run_sabotaged({.victim = kA, .fires = 1, .one_block = true});
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.partial_aborts, 1u);
  EXPECT_EQ(stats.full_aborts, 0u);
  EXPECT_EQ(stats.blocks_executed, 2u);
}

TEST(Executor, MergedHistoryConflictEscalatesToFullAbort) {
  // Victim read by the *previous* block.
  const ExecStats stats = run_sabotaged({.victim = kA, .fires = 1});
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.partial_aborts, 0u);
  EXPECT_EQ(stats.full_aborts, 1u);
  EXPECT_EQ(stats.ops_executed, (1u + 3u) * 2);
}

TEST(Executor, RepeatedPartialsEscalateAtTheCap) {
  auto config = fast_executor();
  config.max_partial_retries = 3;
  const ExecStats stats =
      run_sabotaged({.victim = kB, .fires = 4, .config = config});
  EXPECT_EQ(stats.commits, 1u);
  // Fires 1-3 are absorbed as partial retries; fire 4 exceeds the cap and
  // escalates; the restart runs clean.
  EXPECT_EQ(stats.partial_aborts, 3u);
  EXPECT_EQ(stats.full_aborts, 1u);
}

TEST(Executor, FlatModeTreatsEveryConflictAsFullAbort) {
  const ExecStats stats =
      run_sabotaged({.victim = kB, .fires = 2, .protocol = Protocol::kFlat});
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.partial_aborts, 0u);
  EXPECT_EQ(stats.full_aborts, 2u);
}

TEST(Executor, CheckpointRestoreResumesAtInvalidRead) {
  // Victim B is read at op 1 (the second remote access); the conflict is
  // detected at read C.  The checkpoint executor must resume from B's
  // checkpoint, re-executing ops 1-3 but NOT op 0.
  const ExecStats stats = run_sabotaged(
      {.victim = kB, .fires = 1, .protocol = Protocol::kCheckpoint});
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.full_aborts, 0u);
  EXPECT_EQ(stats.checkpoint_restores, 1u);
  // ops: A,B,sab,C(aborts) = 4, then resume B,sab,C = 3.
  EXPECT_EQ(stats.ops_executed, 4u + 3u);
  // A checkpoint per remote access: A,B,C + re-executed B,C.
  EXPECT_EQ(stats.checkpoints_taken, 5u);
}

TEST(Executor, CheckpointRestoreReachesBackToEarlierAccess) {
  // Victim A was read at op 0: restore must rewind to the very first
  // checkpoint and re-execute everything — still no full abort.
  const ExecStats stats = run_sabotaged(
      {.victim = kA, .fires = 1, .protocol = Protocol::kCheckpoint});
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.full_aborts, 0u);
  EXPECT_EQ(stats.checkpoint_restores, 1u);
  EXPECT_EQ(stats.ops_executed, 4u + 4u);
}

TEST(Executor, CheckpointRestoreAfterACommitConflict) {
  // Victim C is read at op 2 and overwritten after it: the read-only
  // commit's validation refuses C, and the handle, which holds nothing
  // remotely, rolls back to C's checkpoint instead of restarting.
  const ExecStats stats = run_sabotaged({.victim = kC,
                                         .fires = 1,
                                         .protocol = Protocol::kCheckpoint,
                                         .at_commit = true});
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.full_aborts, 0u);
  EXPECT_EQ(stats.aborts_at_commit, 1u);
  EXPECT_EQ(stats.checkpoint_restores, 1u);
  // ops: A,B,C,sab = 4, then resume C,sab = 2.
  EXPECT_EQ(stats.ops_executed, 4u + 2u);
  EXPECT_EQ(stats.checkpoints_taken, 3u + 1u);
}

TEST(Executor, CheckpointMatchesFlatFinalState) {
  workloads::Bank bank({.n_branches = 4, .n_accounts = 8});
  const auto& profile = bank.profiles()[0];
  const std::vector<Record> params{Record{3}, Record{4}, Record{1}, Record{2},
                                   Record{9}};
  std::vector<store::Record> expected;
  {
    Cluster cluster(fast_config());
    bank.seed(cluster.servers());
    auto stub = cluster.make_stub(0);
    Executor executor(stub, fast_executor(), 1);
    ExecStats stats;
    executor.run(Protocol::kFlat, with_program(*profile.program), params, stats);
    for (const auto& key :
         {workloads::Bank::account_key(3), workloads::Bank::account_key(4),
          workloads::Bank::branch_key(1), workloads::Bank::branch_key(2)})
      expected.push_back(workloads::latest_value(cluster.servers(), key).value);
  }
  Cluster cluster(fast_config());
  bank.seed(cluster.servers());
  auto stub = cluster.make_stub(0);
  Executor executor(stub, fast_executor(), 1);
  ExecStats stats;
  executor.run(Protocol::kCheckpoint, with_program(*profile.program), params,
               stats);
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.checkpoints_taken, 4u);
  std::size_t i = 0;
  for (const auto& key :
       {workloads::Bank::account_key(3), workloads::Bank::account_key(4),
        workloads::Bank::branch_key(1), workloads::Bank::branch_key(2)})
    EXPECT_EQ(workloads::latest_value(cluster.servers(), key).value,
              expected[i++]);
}

TEST(Executor, CheckpointEscalatesAfterRetryCap) {
  auto config = fast_executor();
  config.max_partial_retries = 3;
  const ExecStats stats = run_sabotaged({.victim = kB,
                                         .fires = 5,
                                         .protocol = Protocol::kCheckpoint,
                                         .config = config});
  EXPECT_EQ(stats.commits, 1u);
  // Fires 1-3 restore; fire 4 exceeds the cap -> full restart; fire 5
  // restores again on the second attempt.
  EXPECT_EQ(stats.full_aborts, 1u);
  EXPECT_EQ(stats.checkpoint_restores, 4u);
}

TEST(Executor, AdaptiveUsesControllerPlan) {
  Cluster cluster(fast_config());
  workloads::Bank bank({.n_branches = 4, .n_accounts = 8});
  bank.seed(cluster.servers());
  auto stub = cluster.make_stub(0);
  Executor executor(stub, fast_executor(), 1);

  AdaptiveController controller(*bank.profiles()[0].program, {},
                                default_contention_model());
  const auto initial_plan = controller.plan();
  EXPECT_EQ(initial_plan->sequence.size(), 4u);  // static: one unit per block

  ExecStats stats;
  const std::vector<Record> params{Record{1}, Record{2}, Record{0}, Record{3},
                                   Record{5}};
  executor.run(Protocol::kAcn, with_controller(controller), params, stats);
  EXPECT_EQ(stats.commits, 1u);

  controller.adapt({{workloads::Bank::kBranch, 500},
                    {workloads::Bank::kAccount, 1}});
  const auto adapted_plan = controller.plan();
  EXPECT_NE(adapted_plan, initial_plan);
  EXPECT_EQ(adapted_plan->sequence.size(), 2u);  // Figure 3 arrangement
  EXPECT_EQ(controller.adaptations(), 1u);

  executor.run(Protocol::kAcn, with_controller(controller), params, stats);
  EXPECT_EQ(stats.commits, 2u);
  bank.check_invariants(cluster.servers());
}

TEST(Executor, ControllerSkipsNoopRecompositions) {
  workloads::Bank bank({.n_branches = 4, .n_accounts = 8});
  AdaptiveController controller(*bank.profiles()[0].program, {},
                                default_contention_model());
  const RawLevels hot_branches{{workloads::Bank::kBranch, 500},
                               {workloads::Bank::kAccount, 1}};
  controller.adapt(hot_branches);
  const auto plan = controller.plan();
  EXPECT_EQ(controller.adaptations(), 1u);
  EXPECT_EQ(controller.recompositions(), 1u);

  // Same workload snapshot: tick counts, but no new plan is published.
  controller.adapt(hot_branches);
  EXPECT_EQ(controller.adaptations(), 2u);
  EXPECT_EQ(controller.recompositions(), 1u);
  EXPECT_EQ(controller.plan(), plan);

  // Flipped workload: genuinely new composition.
  controller.adapt({{workloads::Bank::kBranch, 1},
                    {workloads::Bank::kAccount, 500}});
  EXPECT_EQ(controller.recompositions(), 2u);
  EXPECT_NE(controller.plan(), plan);
}

TEST(Executor, SameCompositionComparesLayoutNotPointers) {
  workloads::Bank bank({.n_branches = 4, .n_accounts = 8});
  AlgorithmModule algorithm(*bank.profiles()[0].program, {},
                            default_contention_model());
  const RawLevels levels{{workloads::Bank::kBranch, 100},
                         {workloads::Bank::kAccount, 3}};
  const Plan a = algorithm.recompute(levels);
  const Plan b = algorithm.recompute(levels);  // independent recompute
  EXPECT_TRUE(same_composition(a, b));
  const Plan c = algorithm.recompute({{workloads::Bank::kBranch, 3},
                                      {workloads::Bank::kAccount, 100}});
  EXPECT_FALSE(same_composition(a, c));
}

TEST(Executor, PartialAbortsLandInTheExpectedBlockPosition) {
  const ExecStats stats = run_sabotaged({.victim = kB, .fires = 2});
  // The sabotaged block is position 1 of the two-block sequence.
  EXPECT_EQ(stats.partials_at_position[0], 0u);
  EXPECT_EQ(stats.partials_at_position[1], 2u);
}

TEST(Executor, TouchedClassesAreDeduplicated) {
  workloads::Bank bank({.n_branches = 4, .n_accounts = 8});
  AdaptiveController controller(*bank.profiles()[0].program, {},
                                default_contention_model());
  EXPECT_EQ(controller.touched_classes(),
            (std::vector<ir::ClassId>{workloads::Bank::kBranch,
                                      workloads::Bank::kAccount}));
}

TEST(ExecStats, MergeAggregates) {
  ExecStats a, b;
  a.commits = 1;
  a.partial_aborts = 2;
  b.commits = 3;
  b.full_aborts = 4;
  b.ops_executed = 5;
  a.merge(b);
  EXPECT_EQ(a.commits, 4u);
  EXPECT_EQ(a.partial_aborts, 2u);
  EXPECT_EQ(a.full_aborts, 4u);
  EXPECT_EQ(a.ops_executed, 5u);
}

}  // namespace
}  // namespace acn
