// shard::Client — the unified submission API over a sharded cluster.
// Covers: single-shard purity (no other group hears anything), a
// mispredicted footprint (a pointer chase onto another group's key) that
// commits by 2PC without a re-run and with one scheduler conversation,
// misprediction counted once per committed transaction, a genuinely absent
// key staying a workload bug, admission gating of the cross-shard path
// (the same admit / on_full_abort / finish conversation the Executor has,
// with 2PC aborts classified through the shared acn::outcome_of), a 2PC
// abort restarting a checkpointed run in full, manual-CN block execution
// across shards, one batched read round per group a Block reads, and
// ClientFleet building a custom/replicated ShardMap from a workload's
// placement.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/acn/footprint.hpp"
#include "src/acn/unitgraph.hpp"
#include "src/chaos/chaos.hpp"
#include "src/dtm/abort.hpp"
#include "src/harness/cluster.hpp"
#include "src/shard/client.hpp"
#include "src/shard/router.hpp"
#include "src/shard/shard_map.hpp"
#include "src/workloads/bank.hpp"
#include "src/workloads/tpcc.hpp"

namespace acn::shard {
namespace {

using ir::ProgramBuilder;
using ir::TxEnv;
using ir::VarId;
using store::ObjectKey;
using store::Record;

harness::ClusterConfig fast_cluster(std::size_t groups,
                                    std::size_t per_group = 3) {
  harness::ClusterConfig config;
  config.n_servers = per_group;
  config.n_groups = groups;
  config.base_latency = std::chrono::nanoseconds{0};
  return config;
}

/// Blocks of 100 ids round-robin across groups: id 5 is group 0, id 105
/// group 1 (same deterministic placement test_shard.cpp uses).
ShardMap range_map(std::uint32_t n_shards) {
  ShardMapConfig config;
  config.n_shards = n_shards;
  config.partitioning = Partitioning::kRange;
  config.range_block = 100;
  return ShardMap(config);
}

acn::ExecutorConfig fast_executor() {
  acn::ExecutorConfig config;
  config.backoff_base = std::chrono::microseconds{1};
  return config;
}

/// [read key(param 0) for-write] -> [increment field 0].  The whole
/// footprint is param-predictable, so the route plan is exact.
ir::TxProgram increment_program() {
  ProgramBuilder b("client.inc", 1);
  const VarId p = b.param(0);
  const VarId v = b.remote_read(
      1, {p},
      [p](const TxEnv& e) {
        return ObjectKey{1, static_cast<std::uint64_t>(e.geti(p))};
      },
      "read", /*for_write=*/true);
  b.local({v}, {v},
          [v](TxEnv& e) {
            Record r = e.get(v);
            r[0] += 1;
            e.write_object(v, std::move(r));
          },
          "increment");
  return b.build();
}

/// Unconditional transfer between two param-keyed accounts; `hook` (when
/// set) runs inside the final local op, before the writes are buffered —
/// the seam the admission-gate test uses to inject a conflicting rival.
ir::TxProgram transfer_program(std::function<void()> hook = {}) {
  ProgramBuilder b("client.transfer", 2);
  const VarId p_src = b.param(0);
  const VarId p_dst = b.param(1);
  const VarId src = b.remote_read(
      1, {p_src},
      [p_src](const TxEnv& e) {
        return ObjectKey{1, static_cast<std::uint64_t>(e.geti(p_src))};
      },
      "read src", /*for_write=*/true);
  const VarId dst = b.remote_read(
      1, {p_dst},
      [p_dst](const TxEnv& e) {
        return ObjectKey{1, static_cast<std::uint64_t>(e.geti(p_dst))};
      },
      "read dst", /*for_write=*/true);
  b.local({src, dst}, {src, dst},
          [src, dst, hook](TxEnv& e) {
            if (hook) hook();
            Record a = e.get(src);
            Record d = e.get(dst);
            a[0] -= 75;
            d[0] += 75;
            e.write_object(src, std::move(a));
            e.write_object(dst, std::move(d));
          },
          "transfer");
  return b.build();
}

/// A pointer chase: the second key comes from a value the first read
/// produced, so the predicted footprint sees only the home key and the
/// router plans single-shard — the misprediction shape.  `hook` (when set)
/// runs inside the final local op, as in transfer_program.
ir::TxProgram chase_program(std::function<void()> hook = {}) {
  ProgramBuilder b("client.chase", 1);
  const VarId p = b.param(0);
  const VarId home = b.remote_read(
      1, {p},
      [p](const TxEnv& e) {
        return ObjectKey{1, static_cast<std::uint64_t>(e.geti(p))};
      },
      "read home", /*for_write=*/true);
  const VarId ptr = b.fresh_var();
  b.local({home}, {ptr},
          [home, ptr](TxEnv& e) { e.seti(ptr, e.get(home)[1]); }, "deref");
  const VarId away = b.remote_read(
      1, {ptr},
      [ptr](const TxEnv& e) {
        return ObjectKey{1, static_cast<std::uint64_t>(e.geti(ptr))};
      },
      "read away", /*for_write=*/true);
  b.local({home, away}, {home, away},
          [home, away, hook](TxEnv& e) {
            if (hook) hook();
            Record h = e.get(home);
            Record a = e.get(away);
            h[0] -= 5;
            a[0] += 5;
            e.write_object(home, std::move(h));
            e.write_object(away, std::move(a));
          },
          "transfer");
  return b.build();
}

class FakeGate final : public acn::SchedulerGate {
 public:
  void admit(const KeyFootprint& footprint) override {
    ++admits;
    admitted = footprint;
  }
  void on_full_abort(acn::TxOutcome kind,
                     const std::vector<ir::ObjectKey>& conflict) override {
    ++full_aborts;
    abort_kinds.push_back(kind);
    conflicts.insert(conflicts.end(), conflict.begin(), conflict.end());
  }
  void finish(acn::TxOutcome outcome) override {
    ++finishes;
    last_outcome = outcome;
  }

  int admits = 0;
  int full_aborts = 0;
  int finishes = 0;
  KeyFootprint admitted;
  std::vector<acn::TxOutcome> abort_kinds;
  std::vector<ir::ObjectKey> conflicts;
  acn::TxOutcome last_outcome = acn::TxOutcome::kBusy;
};

TEST(Client, SingleShardFastPathNeverTouchesOtherGroups) {
  harness::Cluster cluster(fast_cluster(2));
  const ShardMap map = range_map(2);
  ShardRouter router(map);
  seed_sharded(cluster, map, {1, 5}, Record{100, 0});
  cluster.flush_seeds();

  ClientStats stats;
  Client client(cluster, router, stats, /*client_ordinal=*/0, fast_executor(),
                /*seed=*/7);
  const auto program = increment_program();
  acn::ExecStats es;
  client.run(harness::Protocol::kFlat, acn::with_program(program),
             {Record{5}}, es);

  EXPECT_EQ(es.commits, 1u);
  EXPECT_EQ(stats.fast_path.load(), 1u);
  EXPECT_EQ(stats.cross_shard.load(), 0u);
  EXPECT_EQ(stats.escalations.load(), 0u);
  EXPECT_EQ(latest_sharded(cluster, map, {1, 5}).value.fields[0], 101);
  // The fast-path invariant: group 1 heard NOTHING.
  for (dtm::Server* server : cluster.group_servers(1)) {
    EXPECT_EQ(server->stats().reads.load(), 0u);
    EXPECT_EQ(server->stats().prepares.load(), 0u);
    EXPECT_EQ(server->stats().commits.load(), 0u);
  }
}

TEST(Client, MispredictionCommitsWithoutReRunOrSecondAdmit) {
  harness::Cluster cluster(fast_cluster(2));
  const ShardMap map = range_map(2);
  ShardRouter router(map);
  // Home record's field 1 points at id 105 — a key group 1 owns that the
  // static prediction cannot see.
  seed_sharded(cluster, map, {1, 5}, Record{50, 105});
  seed_sharded(cluster, map, {1, 105}, Record{50, 0});
  cluster.flush_seeds();

  ClientStats stats;
  Client client(cluster, router, stats, 0, fast_executor(), 11);
  const auto program = chase_program();
  FakeGate gate;
  acn::RunOptions options = acn::with_program(program);
  options.scheduler = &gate;
  acn::ExecStats es;
  client.run(harness::Protocol::kFlat, options, {Record{5}}, es);

  // Planned single-shard; the foreign key was read from group 1, which
  // owns it, and the commit ran 2PC on both groups — in the one run the
  // gate admitted.
  EXPECT_EQ(es.commits, 1u);
  EXPECT_EQ(es.full_aborts, 0u);
  EXPECT_EQ(gate.admits, 1);
  EXPECT_EQ(gate.finishes, 1);
  EXPECT_EQ(gate.last_outcome, acn::TxOutcome::kCommitted);
  EXPECT_EQ(stats.fast_path.load(), 0u);
  EXPECT_EQ(stats.escalations.load(), 1u);
  EXPECT_EQ(stats.cross_shard.load(), 1u);
  EXPECT_EQ(router.stats().mispredicted, 1u);
  // No re-run: group 0 served the home key once, and nothing else.
  for (dtm::Server* server : cluster.group_servers(0))
    EXPECT_LE(server->stats().reads.load(), 1u);
  EXPECT_EQ(latest_sharded(cluster, map, {1, 5}).value.fields[0], 45);
  EXPECT_EQ(latest_sharded(cluster, map, {1, 105}).value.fields[0], 55);
  // Nothing half-done: no open lease or protected key anywhere.
  for (dtm::Server* server : cluster.servers()) {
    EXPECT_EQ(server->open_lease_count(), 0u);
    EXPECT_EQ(server->store().protected_count(), 0u);
  }
}

TEST(Client, MispredictionCountsOncePerCommittedTransaction) {
  harness::Cluster cluster(fast_cluster(2));
  const ShardMap map = range_map(2);
  ShardRouter router(map);
  const ObjectKey home{1, 5}, away{1, 105};
  seed_sharded(cluster, map, home, Record{50, 105});
  seed_sharded(cluster, map, away, Record{50, 0});
  cluster.flush_seeds();

  // On the first attempt only, a rival commits a new version of the away
  // key after the chase read it: that attempt's prepare is refused, the
  // retry commits.  Two commit attempts, one committed transaction.
  CrossShardCoordinator rival(cluster, router, /*client_ordinal=*/9);
  bool rival_fired = false;
  const auto program = chase_program([&] {
    if (rival_fired) return;
    rival_fired = true;
    ShardTx tx = rival.begin({{away, true}});
    tx.insert(away, Record{900, 0});
    tx.commit();
  });

  ClientStats stats;
  Client client(cluster, router, stats, 0, fast_executor(), 29);
  acn::ExecStats es;
  client.run(harness::Protocol::kFlat, acn::with_program(program),
             {Record{5}}, es);

  EXPECT_EQ(es.commits, 1u);
  EXPECT_EQ(es.aborts_at_commit, 1u);
  EXPECT_EQ(router.stats().mispredicted, 1u);
  EXPECT_EQ(stats.escalations.load(), 1u);
  EXPECT_EQ(stats.cross_shard.load(), 1u);
  EXPECT_EQ(latest_sharded(cluster, map, home).value.fields[0], 45);
  EXPECT_EQ(latest_sharded(cluster, map, away).value.fields[0], 905);
}

TEST(Client, GenuinelyMissingKeyIsNotAnEscalation) {
  harness::Cluster cluster(fast_cluster(2));
  const ShardMap map = range_map(2);
  ShardRouter router(map);
  // Nothing seeded: id 7 is group 0's own key, so its absence on the home
  // group is a workload bug, not a routing miss.
  ClientStats stats;
  Client client(cluster, router, stats, 0, fast_executor(), 13);
  const auto program = increment_program();
  acn::ExecStats es;
  EXPECT_THROW(client.run(harness::Protocol::kFlat,
                          acn::with_program(program), {Record{7}}, es),
               dtm::ObjectMissing);
  EXPECT_EQ(stats.escalations.load(), 0u);
  EXPECT_EQ(stats.cross_shard.load(), 0u);
}

TEST(Client, CrossShardPathIsAdmissionGatedAndClassifiesAborts) {
  harness::Cluster cluster(fast_cluster(2));
  const ShardMap map = range_map(2);
  ShardRouter router(map);
  const ObjectKey src{1, 5}, dst{1, 105};
  seed_sharded(cluster, map, src, Record{500});
  seed_sharded(cluster, map, dst, Record{500});
  cluster.flush_seeds();

  // On the first attempt only, a rival commits a new version of dst after
  // this transaction read it — the 2PC prepare must fail validation, the
  // gate must hear the abort as kValidation naming dst, and the retry must
  // commit against the rival's value.
  CrossShardCoordinator rival(cluster, router, /*client_ordinal=*/9);
  bool rival_fired = false;
  const auto program = transfer_program([&] {
    if (rival_fired) return;
    rival_fired = true;
    KeyFootprint footprint;
    footprint.push_back({dst, true});
    ShardTx tx = rival.begin(footprint);
    tx.insert(dst, Record{999});
    tx.commit();
  });

  ClientStats stats;
  Client client(cluster, router, stats, 0, fast_executor(), 17);
  FakeGate gate;
  acn::RunOptions options = acn::with_program(program);
  options.scheduler = &gate;
  acn::ExecStats es;
  client.run(harness::Protocol::kFlat, options, {Record{5}, Record{105}}, es);

  EXPECT_EQ(es.commits, 1u);
  EXPECT_EQ(es.full_aborts, 1u);
  EXPECT_EQ(es.aborts_at_commit, 1u);
  EXPECT_EQ(stats.cross_shard.load(), 1u);

  // One admit (with the full predicted footprint), one classified abort,
  // one finish(kCommitted) — the Executor's exact gate conversation.
  EXPECT_EQ(gate.admits, 1);
  ASSERT_EQ(gate.admitted.size(), 2u);
  EXPECT_EQ(gate.admitted[0].key, src);
  EXPECT_EQ(gate.admitted[1].key, dst);
  ASSERT_EQ(gate.full_aborts, 1);
  EXPECT_EQ(gate.abort_kinds.front(), acn::TxOutcome::kValidation);
  ASSERT_FALSE(gate.conflicts.empty());
  EXPECT_EQ(gate.conflicts.front(), dst);
  EXPECT_EQ(gate.finishes, 1);
  EXPECT_EQ(gate.last_outcome, acn::TxOutcome::kCommitted);

  EXPECT_EQ(latest_sharded(cluster, map, src).value.fields[0], 425);
  EXPECT_EQ(latest_sharded(cluster, map, dst).value.fields[0], 999 + 75);
}

TEST(Client, CrossShardCommitAbortRestartsCheckpointedRunInFull) {
  // A failed 2PC finishes the ShardTx (its prepares are released), so even
  // under kCheckpoint a commit-phase abort cannot roll back to a checkpoint:
  // the transaction restarts, and the restart commits.
  harness::Cluster cluster(fast_cluster(2));
  const ShardMap map = range_map(2);
  ShardRouter router(map);
  const ObjectKey src{1, 5}, dst{1, 105};
  seed_sharded(cluster, map, src, Record{500});
  seed_sharded(cluster, map, dst, Record{500});
  cluster.flush_seeds();
  CrossShardCoordinator rival(cluster, router, /*client_ordinal=*/9);
  bool rival_fired = false;
  const auto program = transfer_program([&] {
    if (rival_fired) return;
    rival_fired = true;
    ShardTx tx = rival.begin({{dst, true}});
    tx.insert(dst, Record{999});
    tx.commit();
  });

  ClientStats stats;
  Client client(cluster, router, stats, 0, fast_executor(), 23);
  acn::ExecStats es;
  client.run(harness::Protocol::kCheckpoint, acn::with_program(program),
             {Record{5}, Record{105}}, es);

  EXPECT_EQ(es.commits, 1u);
  EXPECT_EQ(es.aborts_at_commit, 1u);
  EXPECT_EQ(es.full_aborts, 1u);
  EXPECT_EQ(es.checkpoint_restores, 0u);
  EXPECT_EQ(stats.cross_shard.load(), 1u);
  EXPECT_EQ(latest_sharded(cluster, map, dst).value.fields[0], 999 + 75);
}

TEST(Client, OutcomeOfClassifies2pcAbortsForTheScheduler) {
  using dtm::AbortDetail;
  using dtm::AbortKind;
  using dtm::TxAbort;
  EXPECT_EQ(acn::outcome_of(TxAbort(AbortKind::kValidation, {{1, 5}})),
            acn::TxOutcome::kValidation);
  EXPECT_EQ(acn::outcome_of(TxAbort(AbortKind::kBusy, {})),
            acn::TxOutcome::kBusy);
  EXPECT_EQ(acn::outcome_of(
                TxAbort(AbortKind::kBusy, {}, AbortDetail::kLeaseExpired)),
            acn::TxOutcome::kLeaseExpired);
  EXPECT_EQ(acn::outcome_of(TxAbort(AbortKind::kUnavailable, {})),
            acn::TxOutcome::kUnavailable);
}

TEST(Client, ManualCnBlocksExecuteAcrossShards) {
  harness::Cluster cluster(fast_cluster(2));
  const ShardMap map = range_map(2);
  ShardRouter router(map);
  seed_sharded(cluster, map, {1, 5}, Record{500});
  seed_sharded(cluster, map, {1, 105}, Record{500});
  cluster.flush_seeds();

  const auto program = transfer_program();
  const auto model =
      build_dependency_model(program, AttachPolicy::kLatestProducer);
  const auto sequence = initial_sequence(model);
  ASSERT_GT(sequence.size(), 1u);

  ClientStats stats;
  Client client(cluster, router, stats, 0, fast_executor(), 19);
  acn::ExecStats es;
  client.run(harness::Protocol::kManualCN,
             acn::with_blocks(program, model, sequence),
             {Record{5}, Record{105}}, es);

  EXPECT_EQ(es.commits, 1u);
  EXPECT_GE(es.blocks_executed, sequence.size());
  EXPECT_EQ(stats.cross_shard.load(), 1u);
  EXPECT_EQ(latest_sharded(cluster, map, {1, 5}).value.fields[0], 425);
  EXPECT_EQ(latest_sharded(cluster, map, {1, 105}).value.fields[0], 575);
}

struct BatchedBlockRun {
  std::uint64_t batched = 0;  // rpc.read.batched
  std::uint64_t saved = 0;    // rpc.read.saved
  std::uint64_t cross_shard = 0;
};

/// One kManualCN Block that reads and bumps every key in `keys`, run
/// through a Client on a 2-group cluster with batch_reads and prefetch.
BatchedBlockRun run_one_batched_block(const std::vector<ObjectKey>& keys) {
  obs::Observability obs;
  harness::Cluster cluster(fast_cluster(2));
  cluster.set_obs(&obs);
  const ShardMap map = range_map(2);
  ShardRouter router(map);
  for (const ObjectKey& key : keys) seed_sharded(cluster, map, key, Record{10});
  cluster.flush_seeds();

  ProgramBuilder b("client.spread", 0);
  std::vector<VarId> vars;
  for (const ObjectKey& key : keys)
    vars.push_back(b.remote_read(
        1, {}, [key](const TxEnv&) { return key; }, "read",
        /*for_write=*/true));
  b.local(vars, vars,
          [vars](TxEnv& e) {
            for (const VarId v : vars) {
              Record r = e.get(v);
              r[0] += 1;
              e.write_object(v, std::move(r));
            }
          },
          "bump");
  const auto program = b.build();
  const auto model =
      build_dependency_model(program, AttachPolicy::kLatestProducer);
  Block all;
  for (std::size_t u = 0; u < model.units.size(); ++u) all.units.push_back(u);
  const BlockSequence sequence{all};
  EXPECT_TRUE(sequence_valid(sequence, model));

  ClientStats stats;
  Client client(cluster, router, stats, 0, fast_executor(), 31);
  acn::RunOptions options = acn::with_blocks(program, model, sequence);
  options.batch_reads = true;
  options.prefetch = true;
  acn::ExecStats es;
  client.run(harness::Protocol::kManualCN, options, {}, es);

  EXPECT_EQ(es.commits, 1u);
  for (const ObjectKey& key : keys)
    EXPECT_EQ(latest_sharded(cluster, map, key).value.fields[0], 11);
  const auto snapshot = obs.metrics.snapshot();
  return {snapshot.counter("rpc.read.batched"),
          snapshot.counter("rpc.read.saved"), stats.cross_shard.load()};
}

TEST(Client, CrossShardBlockFetchesOneReadRoundPerGroup) {
  // Two keys on each of two groups: the Block's batched fetch splits by
  // group, one read_many round per group, each saving one round over
  // reading its two keys one at a time.
  const BatchedBlockRun run =
      run_one_batched_block({{1, 5}, {1, 6}, {1, 105}, {1, 106}});
  EXPECT_EQ(run.cross_shard, 1u);
  EXPECT_EQ(run.batched, 2u);
  EXPECT_EQ(run.saved, 2u);
}

TEST(Client, OneGroupBlockFetchesInOneReadRound) {
  const BatchedBlockRun run =
      run_one_batched_block({{1, 5}, {1, 6}, {1, 7}, {1, 8}});
  EXPECT_EQ(run.cross_shard, 0u);
  EXPECT_EQ(run.batched, 1u);
  EXPECT_EQ(run.saved, 3u);
}

TEST(Client, AbandonedCommitResolvesBeforeChaosStopDeclaresHealed) {
  // The satellite scenario end to end at the client layer: a coordinator
  // prepares both groups, delivers phase 2 to group 0 only, and abandons
  // the transaction.  ChaosController::stop() must not declare the cluster
  // healed until cooperative termination finished the transfer, and a
  // normal client afterwards observes the COMMITTED state on both groups
  // with the atomicity-breach invariant intact.
  auto config = fast_cluster(2);
  config.prepare_lease_ns = 40'000'000;  // 40 ms
  harness::Cluster cluster(config);
  const ShardMap map = range_map(2);
  ShardRouter router(map);
  const ObjectKey src{1, 5}, dst{1, 105};  // groups 0 and 1
  seed_sharded(cluster, map, src, Record{500});
  seed_sharded(cluster, map, dst, Record{500});
  cluster.flush_seeds();

  CrossShardCoordinator coordinator(cluster, router, /*client_ordinal=*/9);
  {
    KeyFootprint footprint;
    footprint.push_back({src, true});
    footprint.push_back({dst, true});
    ShardTx tx = coordinator.begin(footprint);
    const Record a = tx.read(src);
    const Record b = tx.read(dst);
    tx.write(src, Record{a.fields[0] - 75});
    tx.write(dst, Record{b.fields[0] + 75});
    ASSERT_EQ(tx.prepare_all(), 2u);
    // Group 1 unreachable for phase 2: its push is an in-doubt handoff.
    cluster.network().set_partition({{}, cluster.group_members(1)});
    tx.commit_prepared();
  }  // handle abandoned — nobody left to retry group 1's push
  EXPECT_EQ(coordinator.stats().indoubt_handoffs.load(), 1u);
  EXPECT_EQ(coordinator.stats().atomicity_breaches.load(), 0u);

  // Group 1's lease runs out behind the partition; stop() heals, parks the
  // overdue lease and resolves it from the decision record.
  std::this_thread::sleep_for(std::chrono::milliseconds{60});
  chaos::ChaosController chaos(cluster, chaos::FaultPlan{}, nullptr,
                               /*verbose=*/false);
  chaos.start();
  chaos.stop();
  EXPECT_EQ(chaos.indoubt_report().resolved_commit, 1u);
  EXPECT_EQ(chaos.indoubt_report().unresolved, 0u);

  ClientStats stats;
  acn::ExecStats es;
  {
    Client client(cluster, router, stats, 0, fast_executor(), 23);
    client.run(harness::Protocol::kFlat, acn::with_program(increment_program()),
               {Record{105}}, es);
  }
  EXPECT_EQ(es.commits, 1u);
  EXPECT_EQ(stats.atomicity_breaches.load(), 0u);
  EXPECT_EQ(latest_sharded(cluster, map, src).value.fields[0], 425);
  EXPECT_EQ(latest_sharded(cluster, map, dst).value.fields[0], 576);
}

TEST(ClientFleet, BuildsCustomMapFromWorkloadPlacement) {
  workloads::TpccConfig config;
  config.n_warehouses = 4;
  workloads::Tpcc tpcc(config);
  ClientFleet fleet(tpcc, /*n_shards=*/4);

  // Warehouse-per-group, with the read-only item table replicated.
  EXPECT_EQ(fleet.map().config().partitioning, Partitioning::kCustom);
  EXPECT_TRUE(fleet.map().replicated(workloads::Tpcc::kItem));
  for (store::Field w = 0; w < 4; ++w) {
    const auto group = static_cast<std::uint32_t>(w);
    EXPECT_EQ(fleet.map().shard_of(tpcc.warehouse_key(w)), group);
    EXPECT_EQ(fleet.map().shard_of(tpcc.district_key(w, 3)), group);
    EXPECT_EQ(fleet.map().shard_of(tpcc.customer_key(w, 9, 17)), group);
    EXPECT_EQ(fleet.map().shard_of(tpcc.stock_key(w, 123)), group);
    EXPECT_EQ(fleet.map().shard_of(tpcc.order_key(w, 2, 77)), group);
    EXPECT_EQ(fleet.map().shard_of(
                  tpcc.history_key(workloads::Tpcc::history_id(w, 12345))),
              group);
  }
  // shard_of() (the driver's hotness partitioner) agrees with the map.
  const auto partition = fleet.shard_of();
  EXPECT_EQ(partition(tpcc.district_key(2, 0)), 2u);
}

TEST(ClientFleet, SeedsOwnerScopedAndFactoryBuildsWorkingClients) {
  harness::Cluster cluster(fast_cluster(2));
  workloads::TpccConfig config;
  config.n_warehouses = 2;
  workloads::Tpcc tpcc(config);
  ClientFleet fleet(tpcc, 2);
  fleet.seed(cluster, tpcc);

  // Owner-scoped: warehouse 1's district rows live only on group 1; the
  // replicated item table is present on both groups.
  const ObjectKey d1 = tpcc.district_key(1, 0);
  for (dtm::Server* server : cluster.group_servers(0))
    EXPECT_EQ(server->store().read(d1).status, store::ReadStatus::kMissing);
  bool group1_has = false;
  for (dtm::Server* server : cluster.group_servers(1))
    group1_has |= server->store().read(d1).status == store::ReadStatus::kOk;
  EXPECT_TRUE(group1_has);
  for (std::size_t g = 0; g < 2; ++g) {
    bool has_item = false;
    for (dtm::Server* server : cluster.group_servers(g))
      has_item |=
          server->store().read(tpcc.item_key(0)).status == store::ReadStatus::kOk;
    EXPECT_TRUE(has_item);
  }

  // A factory-built Client runs a pinned NewOrder on the fast path.
  auto submitter = fleet.factory()(cluster, 0, fast_executor(), 23);
  const auto& profile = tpcc.profiles()[0];
  const std::size_t lines = workloads::Tpcc::kOrderLines;
  ir::Record items(lines), qtys(lines, 1), supply(lines, 1);
  for (std::size_t l = 0; l < lines; ++l)
    items[l] = static_cast<store::Field>(l);
  acn::ExecStats es;
  submitter->run(harness::Protocol::kFlat, acn::with_program(*profile.program),
                 {Record{1}, Record{0}, Record{0}, items, qtys, supply}, es);
  EXPECT_EQ(es.commits, 1u);
  EXPECT_EQ(fleet.stats().fast_path.load(), 1u);
  EXPECT_EQ(fleet.stats().cross_shard.load(), 0u);
}

TEST(ClientFleet, DriverWithoutTheFactoryRejectsAShardedCluster) {
  // The driver's default submitter addresses group 0 only: on a sharded
  // cluster it would measure an unsharded run on one group, even though
  // the workload is seeded on every group.
  harness::Cluster cluster(fast_cluster(2));
  workloads::Bank bank({.n_branches = 4, .n_accounts = 16});
  bank.seed(cluster.servers());
  harness::DriverConfig driver;
  driver.n_clients = 1;
  driver.intervals = 1;
  driver.interval = std::chrono::milliseconds{10};
  try {
    harness::run(cluster, bank, harness::Protocol::kFlat, driver);
    FAIL() << "run() measured a 2-group cluster through group 0 only";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ClientFleet::factory()"),
              std::string::npos)
        << e.what();
  }
  // With the fleet's factory the same cluster runs.
  ClientFleet fleet(bank, 2);
  driver.make_submitter = fleet.factory();
  EXPECT_GT(harness::run(cluster, bank, harness::Protocol::kFlat, driver)
                .stats.commits,
            0u);
}

}  // namespace
}  // namespace acn::shard
