// Sharding subsystem tests (src/shard + the group-aware harness): keyspace
// partitioning, footprint-based routing with mispredict escalation, the
// single-shard fast path's no-cross-group-traffic invariant, cross-shard
// 2PC atomicity, in-doubt parking + cooperative termination after a
// coordinator crash (abort via sealed presumed abort, commit via the
// decision record, parked while the coordinator node is down), a partition
// isolating a participant group, WAL recovery of an in-flight cross-shard
// prepare, group-scoped rejoin catch-up, and the per-group chaos victim
// derivation.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <thread>
#include <vector>

#include "src/acn/footprint.hpp"
#include "src/chaos/chaos.hpp"
#include "src/dtm/abort.hpp"
#include "src/harness/cluster.hpp"
#include "src/harness/indoubt.hpp"
#include "src/shard/coordinator.hpp"
#include "src/shard/router.hpp"
#include "src/shard/shard_map.hpp"

namespace acn::shard {
namespace {

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

/// Deterministic group targeting without chasing hash placements: blocks of
/// 100 ids round-robin across groups, so id 5 is group 0, id 105 group 1...
ShardMap range_map(std::uint32_t n_shards) {
  ShardMapConfig config;
  config.n_shards = n_shards;
  config.partitioning = Partitioning::kRange;
  config.range_block = 100;
  return ShardMap(config);
}

KeyFootprint write_footprint(std::vector<ObjectKey> keys) {
  std::sort(keys.begin(), keys.end());
  KeyFootprint footprint;
  for (const auto& key : keys) footprint.push_back({key, true});
  return footprint;
}

std::size_t total_protected(harness::Cluster& cluster) {
  std::size_t count = 0;
  for (dtm::Server* server : cluster.servers())
    count += server->store().protected_count();
  return count;
}

std::size_t total_open_leases(harness::Cluster& cluster) {
  std::size_t count = 0;
  for (dtm::Server* server : cluster.servers())
    count += server->open_lease_count();
  return count;
}

TEST(ShardMap, HashIsDeterministicAndCoversEveryShard) {
  ShardMap map(ShardMapConfig{.n_shards = 8});
  std::vector<std::size_t> per_shard(8, 0);
  for (std::uint64_t id = 0; id < 4096; ++id) {
    const ObjectKey key{2, id};
    const std::uint32_t shard = map.shard_of(key);
    ASSERT_LT(shard, 8u);
    EXPECT_EQ(shard, map.shard_of(key));  // pure function of the key
    ++per_shard[shard];
  }
  // A balanced hash leaves no shard empty (or starved) over 4096 keys.
  for (const std::size_t n : per_shard) EXPECT_GT(n, 4096u / 16);
}

TEST(ShardMap, RangeBlocksRoundRobinAcrossShards) {
  const ShardMap map = range_map(3);
  EXPECT_EQ(map.shard_of({1, 0}), 0u);
  EXPECT_EQ(map.shard_of({1, 99}), 0u);
  EXPECT_EQ(map.shard_of({1, 100}), 1u);
  EXPECT_EQ(map.shard_of({1, 250}), 2u);
  EXPECT_EQ(map.shard_of({1, 300}), 0u);  // wraps round-robin
}

TEST(ShardMap, DegenerateAndInvalidConfigs) {
  ShardMap one(ShardMapConfig{.n_shards = 1});
  for (std::uint64_t id = 0; id < 64; ++id)
    EXPECT_EQ(one.shard_of({7, id}), 0u);
  EXPECT_THROW(ShardMap(ShardMapConfig{.n_shards = 0}), std::invalid_argument);
  EXPECT_THROW(ShardMap(ShardMapConfig{.n_shards = 2,
                                       .partitioning = Partitioning::kRange,
                                       .range_block = 0}),
               std::invalid_argument);
}

TEST(ShardMap, ReplicatedClassesAreInvisibleToRoutePlanning) {
  ShardMapConfig config;
  config.n_shards = 2;
  config.partitioning = Partitioning::kRange;
  config.range_block = 100;
  config.replicated_classes = {4};
  const ShardMap map(config);
  EXPECT_TRUE(map.replicated(4));
  EXPECT_FALSE(map.replicated(1));

  // A footprint spanning a replicated key and a home key stays single
  // shard: the replicated class contributes no group.
  const KeyFootprint footprint = write_footprint({{1, 5}, {4, 9999}});
  EXPECT_EQ(map.shards_touched(footprint),
            (std::vector<std::uint32_t>{0}));
}

TEST(ShardMap, CustomPlacementReducesNaturalIdsModuloShards) {
  ShardMapConfig config;
  config.n_shards = 3;
  config.partitioning = Partitioning::kCustom;
  // The workload returns a natural placement id (here: the raw key id, as
  // a branch-per-group bank would); the map owns the modulo.
  config.custom = [](const ObjectKey& key) {
    return static_cast<std::uint32_t>(key.id);
  };
  const ShardMap map(config);
  EXPECT_EQ(map.shard_of({1, 0}), 0u);
  EXPECT_EQ(map.shard_of({1, 4}), 1u);
  EXPECT_EQ(map.shard_of({1, 5}), 2u);
}

TEST(Coordinator, ReplicatedClassReadsServeFromHomeAndWritesAreRefused) {
  harness::Cluster cluster(fast_cluster(2));
  ShardMapConfig map_config;
  map_config.n_shards = 2;
  map_config.partitioning = Partitioning::kRange;
  map_config.range_block = 100;
  map_config.replicated_classes = {4};
  const ShardMap map(map_config);
  ShardRouter router(map);
  const ObjectKey home{1, 105};      // group 1
  const ObjectKey reference{4, 42};  // replicated: seeded on BOTH groups
  seed_sharded(cluster, map, home, Record{10});
  seed_sharded(cluster, map, reference, Record{77});

  CrossShardCoordinator coordinator(cluster, router, 0);
  KeyFootprint footprint = write_footprint({home});
  footprint.push_back({reference, false});
  std::sort(footprint.begin(), footprint.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  ShardTx tx = coordinator.begin(footprint);
  // The plan is single-shard on group 1; the replicated read is served
  // there without widening the plan.
  EXPECT_TRUE(tx.predicted().single_shard());
  EXPECT_EQ(tx.predicted().home(), 1u);
  EXPECT_EQ(tx.read(reference).fields[0], 77);
  const auto h = tx.read(home);
  tx.write(home, Record{h.fields[0] + 1});
  // Writing a replicated class would silently diverge the groups' copies.
  EXPECT_THROW(tx.write(reference, Record{0}), std::logic_error);
  EXPECT_THROW(tx.insert(reference, Record{0}), std::logic_error);
  // write() needs a prior read, as TxAccess says; insert() is the blind
  // write.
  const ObjectKey fresh{1, 106};  // group 1, never seeded
  EXPECT_THROW(tx.write(fresh, Record{1}), std::logic_error);
  tx.insert(fresh, Record{1});
  tx.commit();
  EXPECT_EQ(latest_sharded(cluster, map, home).value.fields[0], 11);
  EXPECT_EQ(latest_sharded(cluster, map, fresh).value.fields[0], 1);
}

TEST(ShardsTouched, SortedDeduplicatedUnderAnyPartitioning) {
  const KeyFootprint footprint = write_footprint(
      {{1, 205}, {1, 5}, {2, 110}, {1, 107}});
  // The acn helper is generic over the partitioning callable.
  const auto shards = acn::shards_touched(
      footprint, [](const ir::ObjectKey& key) {
        return static_cast<std::uint32_t>((key.id / 100) % 3);
      });
  EXPECT_EQ(shards, (std::vector<std::uint32_t>{0, 1, 2}));
  // And ShardMap binds it to the real map.
  const ShardMap map = range_map(3);
  EXPECT_EQ(map.shards_touched(footprint),
            (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_TRUE(map.shards_touched({}).empty());
}

TEST(ShardsTouched, PredictedFootprintRoutesAProgram) {
  // The same static analysis that feeds the scheduler feeds the router: a
  // program whose param-only keys span two range blocks plans multi-shard.
  ir::ProgramBuilder b("cross", /*n_params=*/1);
  b.remote_read(
      1, {b.param(0)}, [](const ir::TxEnv&) { return ObjectKey{1, 5}; },
      "read home", /*for_write=*/true);
  b.remote_read(
      1, {b.param(0)}, [](const ir::TxEnv&) { return ObjectKey{1, 105}; },
      "read away", /*for_write=*/true);
  const auto program = b.build();
  const auto footprint = predicted_footprint(program, {ir::Record{1}});
  ASSERT_EQ(footprint.size(), 2u);

  const ShardMap map = range_map(2);
  ShardRouter router(map);
  const RoutePlan plan = router.plan(footprint);
  EXPECT_FALSE(plan.single_shard());
  EXPECT_EQ(plan.groups, (std::vector<std::uint32_t>{0, 1}));
}

TEST(Router, CountsMispredictionsNotOverPredictions) {
  const ShardMap map = range_map(2);
  ShardRouter router(map);

  const RoutePlan predicted = router.plan(write_footprint({{1, 5}}));
  EXPECT_TRUE(predicted.single_shard());
  EXPECT_EQ(predicted.home(), 0u);

  // The transaction committed on a group the prediction never saw: the
  // escape is counted.
  router.count_misprediction(predicted, RoutePlan{{0, 1}});
  EXPECT_EQ(router.stats().mispredicted, 1u);

  // Over-prediction (a planned group never touched) is NOT a mispredict —
  // nothing can be lost by touching less than planned.
  router.count_misprediction(RoutePlan{{0, 1}}, RoutePlan{{0}});
  EXPECT_EQ(router.stats().mispredicted, 1u);

  // An empty plan routes to group 0 rather than nowhere.
  EXPECT_EQ(router.plan({}).groups, (std::vector<std::uint32_t>{0}));
}

TEST(Server, RefusesWrongGroupPrepareAndCommit) {
  harness::Cluster cluster(fast_cluster(2));
  dtm::Server& g1_server = cluster.server(cluster.config().n_servers);
  ASSERT_EQ(g1_server.group(), 1u);

  dtm::Request prepare;
  prepare.payload = dtm::PrepareRequest{77, {}, {{1, 5}}, /*group=*/0};
  const auto prepare_res = g1_server.handle(100, prepare);
  EXPECT_EQ(std::get<dtm::PrepareResponse>(prepare_res.payload).code,
            dtm::PrepareCode::kWrongGroup);
  EXPECT_EQ(g1_server.store().protected_count(), 0u);

  dtm::Request commit;
  commit.payload = dtm::CommitRequest{77, {{1, 5}}, {Record{1}}, {1},
                                      /*group=*/0};
  const auto commit_res = g1_server.handle(100, commit);
  EXPECT_EQ(std::get<dtm::CommitResponse>(commit_res.payload).code,
            dtm::CommitCode::kExpired);
  EXPECT_EQ(g1_server.stats().wrong_group.load(), 2u);
  EXPECT_EQ(g1_server.store().read({1, 5}).status, store::ReadStatus::kMissing);
}

TEST(Coordinator, SingleShardCommitNeverTouchesOtherGroups) {
  harness::Cluster cluster(fast_cluster(2));
  const ShardMap map = range_map(2);
  ShardRouter router(map);
  const ObjectKey home{1, 5};  // group 0
  seed_sharded(cluster, map, home, Record{100});

  CrossShardCoordinator coordinator(cluster, router, /*client_ordinal=*/0);
  ShardTx tx = coordinator.begin(write_footprint({home}));
  EXPECT_TRUE(tx.predicted().single_shard());
  const Record before = tx.read(home);
  EXPECT_EQ(before.fields[0], 100);
  tx.write(home, Record{before.fields[0] + 1});
  tx.commit();

  EXPECT_EQ(latest_sharded(cluster, map, home).value.fields[0], 101);
  EXPECT_EQ(coordinator.stats().single_shard_commits.load(), 1u);
  EXPECT_EQ(coordinator.stats().cross_shard_commits.load(), 0u);
  EXPECT_TRUE(tx.committed_plan().single_shard());

  // The fast-path invariant: group 1 heard NOTHING about this transaction.
  for (dtm::Server* server : cluster.group_servers(1)) {
    EXPECT_EQ(server->stats().reads.load(), 0u);
    EXPECT_EQ(server->stats().prepares.load(), 0u);
    EXPECT_EQ(server->stats().commits.load(), 0u);
    EXPECT_EQ(server->stats().aborts.load(), 0u);
  }
}

TEST(Coordinator, OverPredictedFootprintNarrowsToTheGroupsTouched) {
  harness::Cluster cluster(fast_cluster(2));
  const ShardMap map = range_map(2);
  ShardRouter router(map);
  const ObjectKey src{1, 5}, dst{1, 105};  // groups 0 and 1
  seed_sharded(cluster, map, src, Record{100});
  seed_sharded(cluster, map, dst, Record{100});

  CrossShardCoordinator coordinator(cluster, router, 0);
  ShardTx tx = coordinator.begin(write_footprint({src, dst}));
  EXPECT_FALSE(tx.predicted().single_shard());
  // A Block opens group 1 and is rolled back: the group holds nothing.
  tx.begin_nested();
  tx.insert(dst, Record{0});
  tx.abort_nested();
  const Record before = tx.read(src);
  tx.write(src, Record{before.fields[0] + 1});
  tx.commit();

  // The plan narrows to the one group touched; over-prediction is no
  // mispredict.
  EXPECT_EQ(tx.committed_plan().groups, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(coordinator.stats().single_shard_commits.load(), 1u);
  EXPECT_EQ(coordinator.stats().cross_shard_commits.load(), 0u);
  EXPECT_EQ(router.stats().mispredicted, 0u);
  EXPECT_EQ(latest_sharded(cluster, map, src).value.fields[0], 101);
  EXPECT_EQ(latest_sharded(cluster, map, dst).value.fields[0], 100);
  for (dtm::Server* server : cluster.group_servers(1)) {
    EXPECT_EQ(server->stats().reads.load(), 0u);
    EXPECT_EQ(server->stats().prepares.load(), 0u);
    EXPECT_EQ(server->stats().commits.load(), 0u);
    EXPECT_EQ(server->stats().aborts.load(), 0u);
  }
}

TEST(Coordinator, CrossShardTransferCommitsAtomically) {
  harness::Cluster cluster(fast_cluster(2));
  const ShardMap map = range_map(2);
  ShardRouter router(map);
  const ObjectKey src{1, 5}, dst{1, 105};  // groups 0 and 1
  seed_sharded(cluster, map, src, Record{1000});
  seed_sharded(cluster, map, dst, Record{1000});

  CrossShardCoordinator coordinator(cluster, router, 0);
  ShardTx tx = coordinator.begin(write_footprint({src, dst}));
  EXPECT_FALSE(tx.predicted().single_shard());
  const auto a = tx.read(src), b = tx.read(dst);
  tx.write(src, Record{a.fields[0] - 75});
  tx.write(dst, Record{b.fields[0] + 75});
  tx.commit();

  EXPECT_EQ(latest_sharded(cluster, map, src).value.fields[0], 925);
  EXPECT_EQ(latest_sharded(cluster, map, dst).value.fields[0], 1075);
  EXPECT_EQ(coordinator.stats().cross_shard_commits.load(), 1u);
  EXPECT_EQ(coordinator.stats().atomicity_breaches.load(), 0u);
  EXPECT_EQ(total_protected(cluster), 0u);
  EXPECT_EQ(total_open_leases(cluster), 0u);
}

TEST(Coordinator, ValidationConflictAbortsAndReleasesEveryGroup) {
  harness::Cluster cluster(fast_cluster(2));
  const ShardMap map = range_map(2);
  ShardRouter router(map);
  const ObjectKey src{1, 5}, dst{1, 105};
  seed_sharded(cluster, map, src, Record{500});
  seed_sharded(cluster, map, dst, Record{500});

  CrossShardCoordinator loser(cluster, router, 0);
  CrossShardCoordinator winner(cluster, router, 1);

  ShardTx tx = loser.begin(write_footprint({src, dst}));
  tx.read(src);
  tx.read(dst);

  // A rival commits a new version of dst between the read and the commit.
  ShardTx rival = winner.begin(write_footprint({dst}));
  rival.insert(dst, Record{999});
  rival.commit();

  tx.write(src, Record{1});
  tx.write(dst, Record{2});
  EXPECT_THROW(tx.commit(), dtm::TxAbort);

  // The abort released group 0's prepare; dst keeps the rival's value.
  EXPECT_EQ(total_protected(cluster), 0u);
  EXPECT_EQ(total_open_leases(cluster), 0u);
  EXPECT_EQ(latest_sharded(cluster, map, src).value.fields[0], 500);
  EXPECT_EQ(latest_sharded(cluster, map, dst).value.fields[0], 999);
  EXPECT_EQ(loser.stats().aborts.load(), 1u);
}

TEST(Coordinator, CrashBetweenPreparesParksInDoubtThenResolvesToAbort) {
  auto config = fast_cluster(2);
  config.prepare_lease_ns = 50'000'000;  // 50 ms
  harness::Cluster cluster(config);
  const ShardMap map = range_map(2);
  ShardRouter router(map);
  const ObjectKey src{1, 5}, dst{1, 105};
  seed_sharded(cluster, map, src, Record{300});
  seed_sharded(cluster, map, dst, Record{300});

  CrossShardCoordinator doomed(cluster, router, 0);
  ShardTx tx = doomed.begin(write_footprint({src, dst}));
  tx.read(src);
  tx.read(dst);
  tx.write(src, Record{0});
  tx.write(dst, Record{0});
  ASSERT_EQ(tx.prepare_all(), 2u);  // both groups hold a prepare
  EXPECT_GT(total_open_leases(cluster), 0u);

  // "Crash": the coordinator never sends phase 2.  The expired leases do
  // NOT release — a sibling group may have been told to commit, so both
  // groups park in-doubt with their protections held.
  std::this_thread::sleep_for(std::chrono::milliseconds{80});
  for (dtm::Server* server : cluster.servers()) server->expire_stale_leases();
  EXPECT_GT(total_open_leases(cluster), 0u);
  EXPECT_GT(total_protected(cluster), 0u);
  std::size_t parked = 0;
  for (dtm::Server* server : cluster.servers()) parked += server->indoubt_count();
  EXPECT_GT(parked, 0u);

  // Cooperative termination: the coordinator NODE is reachable and its
  // decision log has no record, so presumed abort is authoritative — both
  // groups release.
  const auto report = harness::resolve_indoubt(cluster);
  EXPECT_EQ(report.resolved_commit, 0u);
  EXPECT_EQ(report.resolved_abort, 2u);
  EXPECT_EQ(report.unresolved, 0u);
  EXPECT_EQ(total_open_leases(cluster), 0u);
  EXPECT_EQ(total_protected(cluster), 0u);

  // The keys are free: a live coordinator transfers across them at once.
  CrossShardCoordinator alive(cluster, router, 1);
  ShardTx retry = alive.begin(write_footprint({src, dst}));
  const auto a = retry.read(src), b = retry.read(dst);
  retry.write(src, Record{a.fields[0] - 10});
  retry.write(dst, Record{b.fields[0] + 10});
  retry.commit();
  EXPECT_EQ(latest_sharded(cluster, map, src).value.fields[0], 290);
  EXPECT_EQ(latest_sharded(cluster, map, dst).value.fields[0], 310);

  // The zombie coordinator waking up cannot decide commit: serving the
  // resolver presumed abort sealed the outcome in its own decision log, so
  // commit_prepared aborts instead of pushing phase 2 — no partial state,
  // no resurrected values, no breach.
  EXPECT_THROW(tx.commit_prepared(), dtm::TxAbort);
  EXPECT_EQ(doomed.stats().atomicity_breaches.load(), 0u);
  EXPECT_EQ(latest_sharded(cluster, map, src).value.fields[0], 290);
  EXPECT_EQ(latest_sharded(cluster, map, dst).value.fields[0], 310);
}

TEST(Coordinator, InDoubtGroupResolvesToCommitFromDecisionRecord) {
  // One group installs phase 2, the second group's push is lost and its
  // lease expires: the satellite scenario — the second group must resolve
  // to COMMIT via the coordinator's decision record, never abort.
  auto config = fast_cluster(2);
  config.prepare_lease_ns = 40'000'000;  // 40 ms
  harness::Cluster cluster(config);
  const ShardMap map = range_map(2);
  ShardRouter router(map);
  const ObjectKey src{1, 5}, dst{1, 105};  // groups 0 and 1
  seed_sharded(cluster, map, src, Record{600});
  seed_sharded(cluster, map, dst, Record{600});

  CrossShardCoordinator coordinator(cluster, router, 0);
  ShardTx tx = coordinator.begin(write_footprint({src, dst}));
  const auto a = tx.read(src), b = tx.read(dst);
  tx.write(src, Record{a.fields[0] - 50});
  tx.write(dst, Record{b.fields[0] + 50});
  ASSERT_EQ(tx.prepare_all(), 2u);

  // Partition group 1 away, then push phase 2: group 0 installs, group 1
  // is unreachable — an in-doubt handoff, and the client still commits.
  cluster.network().set_partition({{}, cluster.group_members(1)});
  tx.commit_prepared();
  EXPECT_EQ(coordinator.stats().indoubt_handoffs.load(), 1u);
  EXPECT_EQ(coordinator.stats().atomicity_breaches.load(), 0u);
  EXPECT_EQ(latest_sharded(cluster, map, src).value.fields[0], 550);
  // dst is still protected by group 1's undelivered prepare — unreadable
  // until cooperative termination installs or releases it.

  // Group 1's lease runs out behind the partition: parked in-doubt.
  std::this_thread::sleep_for(std::chrono::milliseconds{60});
  cluster.network().clear_partition();
  for (dtm::Server* server : cluster.servers()) server->expire_stale_leases();
  std::size_t parked = 0;
  for (dtm::Server* server : cluster.servers()) parked += server->indoubt_count();
  EXPECT_GT(parked, 0u);

  // Cooperative termination reads the decision record and installs group
  // 1's exact push — the transfer completes, atomically after all.
  const auto report = harness::resolve_indoubt(cluster);
  EXPECT_EQ(report.resolved_commit, 1u);
  EXPECT_EQ(report.resolved_abort, 0u);
  EXPECT_EQ(report.unresolved, 0u);
  EXPECT_EQ(latest_sharded(cluster, map, dst).value.fields[0], 650);
  EXPECT_EQ(total_open_leases(cluster), 0u);
  EXPECT_EQ(total_protected(cluster), 0u);
}

TEST(Coordinator, InDoubtStaysParkedWhileCoordinatorNodeIsDown) {
  // Coordinator crash AFTER recording commit, before any push: with the
  // coordinator node down no participant may presume abort (the record may
  // say commit) — the prepare stays parked until the node heals, then
  // resolves to commit.
  auto config = fast_cluster(2);
  config.prepare_lease_ns = 40'000'000;
  harness::Cluster cluster(config);
  const ShardMap map = range_map(2);
  ShardRouter router(map);
  const ObjectKey src{1, 5}, dst{1, 105};
  seed_sharded(cluster, map, src, Record{800});
  seed_sharded(cluster, map, dst, Record{800});

  CrossShardCoordinator coordinator(cluster, router, 0);
  ShardTx tx = coordinator.begin(write_footprint({src, dst}));
  const auto a = tx.read(src), b = tx.read(dst);
  tx.write(src, Record{a.fields[0] + 1});
  tx.write(dst, Record{b.fields[0] + 1});
  ASSERT_EQ(tx.prepare_all(), 2u);
  // Record the decision exactly as commit_prepared would, then "crash":
  // the node goes down before any phase-two message.
  {
    std::vector<dtm::CommitRequest> pushes;
    for (const auto& [key, version] :
         std::vector<std::pair<ObjectKey, store::Version>>{{src, 2}, {dst, 2}})
      pushes.push_back({tx.id(), {key}, {Record{801}}, {version},
                        map.shard_of(key)});
    ASSERT_TRUE(coordinator.decisions().record_commit(tx.id(), pushes));
  }
  cluster.network().set_node_down(coordinator.client_node(), true);

  std::this_thread::sleep_for(std::chrono::milliseconds{60});
  for (dtm::Server* server : cluster.servers()) server->expire_stale_leases();

  // No coordinator, no sibling with a memory: everything stays parked.
  const auto parked_report = harness::resolve_indoubt(cluster);
  EXPECT_EQ(parked_report.resolved_commit, 0u);
  EXPECT_EQ(parked_report.resolved_abort, 0u);
  EXPECT_EQ(parked_report.unresolved, 2u);
  EXPECT_GT(total_protected(cluster), 0u);

  // Node heals: the record is reachable again and both groups install.
  cluster.network().set_node_down(coordinator.client_node(), false);
  const auto report = harness::resolve_indoubt(cluster);
  EXPECT_EQ(report.resolved_commit, 2u);
  EXPECT_EQ(report.unresolved, 0u);
  EXPECT_EQ(latest_sharded(cluster, map, src).value.fields[0], 801);
  EXPECT_EQ(latest_sharded(cluster, map, dst).value.fields[0], 801);
  EXPECT_EQ(total_open_leases(cluster), 0u);
  EXPECT_EQ(total_protected(cluster), 0u);
}

TEST(Coordinator, PartitionIsolatingAParticipantGroupAbortsCleanly) {
  harness::Cluster cluster(fast_cluster(2));
  const ShardMap map = range_map(2);
  ShardRouter router(map);
  const ObjectKey src{1, 5}, dst{1, 105};
  seed_sharded(cluster, map, src, Record{700});
  seed_sharded(cluster, map, dst, Record{700});

  // Cut group 1 off from everyone (clients included, like chaos isolate()).
  cluster.network().set_partition({{}, cluster.group_members(1)});

  CrossShardCoordinator coordinator(cluster, router, 0);
  ShardTx tx = coordinator.begin(write_footprint({src, dst}));
  const auto a = tx.read(src);  // group 0 is reachable
  tx.write(src, Record{a.fields[0] - 1});
  tx.insert(dst, Record{1});
  EXPECT_THROW(tx.commit(), dtm::TxAbort);

  cluster.network().clear_partition();
  // Group 0's prepare was released by the coordinator's phase-1 unwind —
  // not stranded until lease expiry — and group 1 never prepared at all.
  EXPECT_EQ(total_protected(cluster), 0u);
  EXPECT_EQ(total_open_leases(cluster), 0u);
  EXPECT_EQ(latest_sharded(cluster, map, src).value.fields[0], 700);
  EXPECT_EQ(latest_sharded(cluster, map, dst).value.fields[0], 700);
}

TEST(Coordinator, WalRecoveryRearmsInflightCrossShardPrepare) {
  const std::string data_dir =
      testing::TempDir() + "acn-shard-wal-recovery";
  std::filesystem::remove_all(data_dir);

  auto config = fast_cluster(2);
  config.prepare_lease_ns = 60'000'000'000;  // park: expiry not under test
  config.durability.mode = harness::DurabilityMode::kWal;
  config.durability.data_dir = data_dir;
  config.durability.flush_interval_ns = 0;  // every append reaches the disk
  harness::Cluster cluster(config);
  const ShardMap map = range_map(2);
  ShardRouter router(map);
  const ObjectKey src{1, 5}, dst{1, 105};
  seed_sharded(cluster, map, src, Record{40});
  seed_sharded(cluster, map, dst, Record{40});
  cluster.checkpoint_all();  // seeding bypasses the WAL

  CrossShardCoordinator coordinator(cluster, router, 0);
  ShardTx tx = coordinator.begin(write_footprint({src, dst}));
  tx.insert(src, Record{41});
  tx.insert(dst, Record{41});
  ASSERT_EQ(tx.prepare_all(), 2u);

  // Crash a group-1 replica that holds the in-flight prepare; its log has
  // the prepare record, so recovery must re-arm the protection.
  net::NodeId victim = -1;
  for (const net::NodeId id : cluster.group_members(1))
    if (cluster.server(static_cast<std::size_t>(id)).open_lease_count() > 0) {
      victim = id;
      break;
    }
  ASSERT_NE(victim, -1);
  cluster.crash_node(victim);
  cluster.restart_node(victim);
  dtm::Server& rejoined = cluster.server(static_cast<std::size_t>(victim));
  EXPECT_EQ(rejoined.open_lease_count(), 1u);
  EXPECT_GT(rejoined.store().protected_count(), 0u);

  // Phase 2 completes against the rejoined replica — the recovered
  // protection belongs to THIS transaction, so the commit lands.
  tx.commit_prepared();
  EXPECT_EQ(coordinator.stats().atomicity_breaches.load(), 0u);
  EXPECT_EQ(latest_sharded(cluster, map, src).value.fields[0], 41);
  EXPECT_EQ(latest_sharded(cluster, map, dst).value.fields[0], 41);
  EXPECT_EQ(total_open_leases(cluster), 0u);

  std::filesystem::remove_all(data_dir);
}

TEST(Cluster, RejoinCatchUpStaysInsideTheGroup) {
  // Four replicas per group: the tree (root + 3 leaves) keeps its write
  // quorum constructible with one leaf down.  Quorum selection is random,
  // so give the stub enough re-picks to dodge the crashed leaf.
  auto config = fast_cluster(2, /*per_group=*/4);
  config.stub.max_quorum_retries = 16;
  harness::Cluster cluster(config);
  const ShardMap map = range_map(2);
  ShardRouter router(map);
  const ObjectKey k0{1, 5}, k1{1, 105};
  seed_sharded(cluster, map, k0, Record{10});
  seed_sharded(cluster, map, k1, Record{10});

  const net::NodeId victim = cluster.group_members(1).back();
  cluster.crash_node(victim);

  // Advance both keys while the group-1 replica is down.
  CrossShardCoordinator coordinator(cluster, router, 0);
  ShardTx tx = coordinator.begin(write_footprint({k0, k1}));
  const auto a = tx.read(k0), b = tx.read(k1);
  tx.write(k0, Record{a.fields[0] + 1});
  tx.write(k1, Record{b.fields[0] + 2});
  tx.commit();

  cluster.restart_node(victim, harness::CatchUpScope::kAllReplicas);
  dtm::Server& rejoined = cluster.server(static_cast<std::size_t>(victim));
  // Caught up on its own group's key...
  EXPECT_EQ(rejoined.store().read(k1).record.value.fields[0], 12);
  // ...and did NOT import the other group's keyspace.
  EXPECT_EQ(rejoined.store().read(k0).status, store::ReadStatus::kMissing);
}

TEST(Chaos, LeafVictimsAndPartitionGroupsArePerGroup) {
  harness::Cluster cluster(fast_cluster(2, /*per_group=*/7));

  // Group 0's tree over local ids 0..6 (arity 3): leaves are 2..6.
  EXPECT_EQ(chaos::ChaosController::leaf_victims(cluster, 3, 0),
            (std::vector<net::NodeId>{6, 5, 4}));
  // Group 1: same tree relocated to ids 7..13 — never group 1's root (7).
  EXPECT_EQ(chaos::ChaosController::leaf_victims(cluster, 3, 1),
            (std::vector<net::NodeId>{13, 12, 11}));
  const auto all = chaos::ChaosController::leaf_victims(cluster, 6, 1);
  for (const net::NodeId id : all) {
    EXPECT_GE(id, 8);  // neither the root nor a group-0 node
    EXPECT_LT(id, 14);
  }

  const auto groups = chaos::ChaosController::shard_partition_groups(cluster);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], cluster.group_members(0));
  EXPECT_EQ(groups[1], cluster.group_members(1));
}

TEST(Coordinator, MispredictedFootprintFallsBackToCrossShard2pc) {
  harness::Cluster cluster(fast_cluster(2));
  const ShardMap map = range_map(2);
  ShardRouter router(map);
  const ObjectKey home{1, 5}, surprise{1, 105};
  seed_sharded(cluster, map, home, Record{50});
  seed_sharded(cluster, map, surprise, Record{50});

  CrossShardCoordinator coordinator(cluster, router, 0);
  // The prediction only saw the home key (the surprise key is the model of
  // a mid-transaction pointer chase the static analysis cannot see).
  ShardTx tx = coordinator.begin(write_footprint({home}));
  EXPECT_TRUE(tx.predicted().single_shard());
  const auto a = tx.read(home);
  const auto b = tx.read(surprise);
  tx.write(home, Record{a.fields[0] - 5});
  tx.write(surprise, Record{b.fields[0] + 5});
  tx.commit();

  // The commit escalated to 2PC on the groups actually touched — never a
  // silent single-shard commit that drops the group-1 write.
  EXPECT_EQ(tx.committed_plan().groups, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(coordinator.stats().cross_shard_commits.load(), 1u);
  EXPECT_EQ(coordinator.stats().single_shard_commits.load(), 0u);
  EXPECT_EQ(router.stats().mispredicted, 1u);
  EXPECT_EQ(latest_sharded(cluster, map, home).value.fields[0], 45);
  EXPECT_EQ(latest_sharded(cluster, map, surprise).value.fields[0], 55);
}

// ---- DecisionLog: one representation in memory and on disk -------------

std::vector<dtm::CommitRequest> decision_pushes(dtm::TxId tx) {
  return {{tx, {ObjectKey{1, 5}}, {Record{1, 2}}, {3}, 0},
          {tx, {ObjectKey{1, 105}, ObjectKey{1, 106}}, {Record{4}, Record{5}},
           {6, 7}, 1}};
}

/// A commit (then a late abort it must ignore), an explicit abort, a sealed
/// presumed abort, and a commit refused after that seal.
void drive_decisions(DecisionLog& log) {
  ASSERT_TRUE(log.record_commit(1, decision_pushes(1)));
  log.record_abort(1);
  log.record_abort(2);
  ASSERT_EQ(log.answer({3, 0}).code, dtm::DecisionCode::kAborted);
  ASSERT_FALSE(log.record_commit(3, decision_pushes(3)));
}

/// Everything a log says about transactions 1..4 and groups 0..2.
struct DecisionView {
  std::vector<std::optional<Decision>> decisions;
  std::vector<std::optional<dtm::CommitRequest>> pushes;
  std::vector<dtm::DecisionReply> answers;

  friend bool operator==(const DecisionView&, const DecisionView&) = default;
};

DecisionView view_decisions(DecisionLog& log) {
  DecisionView view;
  for (dtm::TxId tx = 1; tx <= 4; ++tx) {
    view.decisions.push_back(log.decision(tx));
    for (std::uint32_t group = 0; group < 3; ++group)
      view.pushes.push_back(log.push_for(tx, group));
  }
  // answer() seals unknown transactions, so only decided ones are asked.
  for (dtm::TxId tx = 1; tx <= 3; ++tx)
    for (std::uint32_t group = 0; group < 3; ++group)
      view.answers.push_back(log.answer({tx, group}));
  return view;
}

TEST(DecisionLog, VolatileAndDurableLogsAnswerAlike) {
  const std::string path = testing::TempDir() + "acn-decision-log";
  std::filesystem::remove(path);

  DecisionLog memory;
  drive_decisions(memory);
  const DecisionView expected = view_decisions(memory);

  const auto pushes = decision_pushes(1);
  EXPECT_EQ(expected.decisions,
            (std::vector<std::optional<Decision>>{
                Decision::kCommit, Decision::kAbort, Decision::kAbort,
                std::nullopt}));
  EXPECT_EQ(expected.pushes[0], pushes[0]);
  EXPECT_EQ(expected.pushes[1], pushes[1]);
  for (std::size_t i = 2; i < expected.pushes.size(); ++i)
    EXPECT_FALSE(expected.pushes[i].has_value()) << i;
  EXPECT_EQ(expected.answers[0].code, dtm::DecisionCode::kCommitted);
  EXPECT_EQ(expected.answers[1].keys, pushes[1].keys);
  EXPECT_EQ(expected.answers[1].values, pushes[1].values);
  EXPECT_EQ(expected.answers[1].versions, pushes[1].versions);
  EXPECT_TRUE(expected.answers[2].keys.empty());  // group 2 took no part
  for (std::size_t i = 3; i < expected.answers.size(); ++i)
    EXPECT_EQ(expected.answers[i].code, dtm::DecisionCode::kAborted) << i;

  {
    DecisionLog durable(path);
    drive_decisions(durable);
    EXPECT_EQ(view_decisions(durable), expected);
  }
  {
    DecisionLog reopened(path);
    EXPECT_EQ(view_decisions(reopened), expected);
  }

  // A crash mid-append leaves a torn frame: a header promising more bytes
  // than the file holds.  Replay drops it, and a decision recorded after
  // the re-open survives the next one.
  {
    std::FILE* file = std::fopen(path.c_str(), "ab");
    ASSERT_NE(file, nullptr);
    const std::uint8_t torn[] = {200, 0, 0, 0, 1, 2, 3, 4, 9, 9};
    std::fwrite(torn, 1, sizeof(torn), file);
    std::fclose(file);
  }
  {
    DecisionLog reopened(path);
    EXPECT_EQ(view_decisions(reopened), expected);
    EXPECT_TRUE(reopened.record_commit(5, decision_pushes(5)));
  }
  DecisionLog after_torn(path);
  EXPECT_EQ(view_decisions(after_torn), expected);
  EXPECT_EQ(after_torn.decision(5), Decision::kCommit);
  EXPECT_EQ(after_torn.push_for(5, 1), decision_pushes(5)[1]);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace acn::shard
