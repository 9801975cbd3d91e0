// Queue-oriented deterministic epoch executor tests (src/queue): epoch
// planning (canonical key order, arrival priority, dependency dedup),
// speculative execution over a Workspace (read-from-earlier-in-epoch,
// misprediction demotion without publishing), the EpochService end to end
// (batched submissions commit in one epoch decision, honest stats), epoch
// atomicity under a mid-epoch crash_node (no orphaned prepares, the
// transfer sum invariant holds), and the shard::Client lane dispatch
// (--exec=queue routes everything predictable, --exec=hybrid routes by
// scheduler hotness, demotion falls through to the optimistic path).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/acn/footprint.hpp"
#include "src/harness/cluster.hpp"
#include "src/queue/epoch.hpp"
#include "src/queue/executor.hpp"
#include "src/queue/service.hpp"
#include "src/sched/scheduler.hpp"
#include "src/shard/client.hpp"
#include "src/shard/router.hpp"
#include "src/shard/shard_map.hpp"

namespace acn::queue {
namespace {

using ir::ProgramBuilder;
using ir::TxEnv;
using ir::VarId;
using shard::Partitioning;
using shard::ShardMap;
using shard::ShardMapConfig;
using shard::ShardRouter;
using store::ObjectKey;
using store::Record;
using store::VersionedRecord;

harness::ClusterConfig fast_cluster(std::size_t groups,
                                    std::size_t per_group = 3) {
  harness::ClusterConfig config;
  config.n_servers = per_group;
  config.n_groups = groups;
  config.base_latency = std::chrono::nanoseconds{0};
  return config;
}

/// Blocks of 100 ids round-robin across groups (the deterministic placement
/// test_shard.cpp / test_client.cpp use): id 5 is group 0, id 105 group 1.
ShardMap range_map(std::uint32_t n_shards) {
  ShardMapConfig config;
  config.n_shards = n_shards;
  config.partitioning = Partitioning::kRange;
  config.range_block = 100;
  return ShardMap(config);
}

/// Canonical footprint from (key, for_write) pairs given in ascending order.
KeyFootprint footprint(std::vector<FootprintEntry> entries) {
  return KeyFootprint(entries.begin(), entries.end());
}

/// [read key(param 0) for-write] -> [increment field 0].
ir::TxProgram increment_program() {
  ProgramBuilder b("queue.inc", 1);
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

/// Move 1 unit from account(param 0) to account(param 1); the sum over both
/// accounts is invariant no matter how many of these commit.
ir::TxProgram transfer_program() {
  ProgramBuilder b("queue.transfer", 2);
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
          [src, dst](TxEnv& e) {
            Record a = e.get(src);
            Record d = e.get(dst);
            a[0] -= 1;
            d[0] += 1;
            e.write_object(src, std::move(a));
            e.write_object(dst, std::move(d));
          },
          "transfer");
  return b.build();
}

/// A pointer chase: the second key comes from the first read's value, so
/// the predicted footprint sees only the home key — the misprediction
/// shape the speculative backend must demote on.
ir::TxProgram chase_program() {
  ProgramBuilder b("queue.chase", 1);
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
          [home, away](TxEnv& e) {
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

// ---------------------------------------------------------------------------
// Epoch planning (pure — no cluster, no threads).

TEST(EpochPlan, QueuesAreCanonicalKeyOrderAndArrivalPriority) {
  const ObjectKey a{1, 5}, b{1, 9}, c{2, 1};
  const KeyFootprint f0 = footprint({{a, true}, {b, false}});
  const KeyFootprint f1 = footprint({{b, true}});
  const KeyFootprint f2 = footprint({{a, false}, {c, true}});
  const EpochPlan plan = plan_epoch({&f0, &f1, &f2});

  // Keys iterate ascending; each queue lists entries in arrival order.
  std::vector<ObjectKey> keys;
  for (const auto& [key, queue] : plan.key_queues) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<ObjectKey>{a, b, c}));
  EXPECT_EQ(plan.key_queues.at(a), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(plan.key_queues.at(b), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(plan.key_queues.at(c), (std::vector<std::size_t>{2}));

  // Entry 0 roots the epoch; 1 and 2 each wait on it via one shared key.
  EXPECT_EQ(plan.roots(), (std::vector<std::size_t>{0}));
  EXPECT_EQ(plan.deps, (std::vector<std::size_t>{0, 1, 1}));
  EXPECT_EQ(plan.dependents[0], (std::vector<std::size_t>{1, 2}));
  EXPECT_TRUE(plan.dependents[1].empty());
  EXPECT_TRUE(plan.dependents[2].empty());

  // Union footprint: ascending, deduped, for_write OR-ed across entries.
  ASSERT_EQ(plan.footprint.size(), 3u);
  EXPECT_EQ(plan.footprint[0].key, a);
  EXPECT_TRUE(plan.footprint[0].for_write);  // f0 wrote a
  EXPECT_EQ(plan.footprint[1].key, b);
  EXPECT_TRUE(plan.footprint[1].for_write);  // f1 wrote b
  EXPECT_EQ(plan.footprint[2].key, c);
  EXPECT_TRUE(plan.footprint[2].for_write);
}

TEST(EpochPlan, SharedKeysProduceOneDependencyNotTwo) {
  const ObjectKey a{1, 5}, b{1, 9};
  const KeyFootprint f0 = footprint({{a, true}, {b, true}});
  const KeyFootprint f1 = footprint({{a, true}, {b, true}});
  const EpochPlan plan = plan_epoch({&f0, &f1});

  // Entry 1 follows entry 0 on BOTH keys, but the dependency counts once —
  // otherwise one completion could never drain both increments.
  EXPECT_EQ(plan.deps, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(plan.dependents[0], (std::vector<std::size_t>{1}));
}

TEST(EpochPlan, DisjointEntriesAreAllRoots) {
  const KeyFootprint f0 = footprint({{ObjectKey{1, 1}, true}});
  const KeyFootprint f1 = footprint({{ObjectKey{1, 2}, true}});
  const KeyFootprint f2 = footprint({{ObjectKey{1, 3}, true}});
  const EpochPlan plan = plan_epoch({&f0, &f1, &f2});
  EXPECT_EQ(plan.roots(), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(plan.deps, (std::vector<std::size_t>{0, 0, 0}));
}

// ---------------------------------------------------------------------------
// Speculative execution over a Workspace (pure — no cluster).

TEST(Speculation, SecondEntryReadsFirstEntrysPublishedWrite) {
  Workspace ws;
  const ObjectKey key{1, 5};
  ws.cache[key] = VersionedRecord{Record{100, 0}, 7};
  const KeyFootprint planned = footprint({{key, true}});
  const auto program = increment_program();
  const std::vector<Record> params{Record{5}};

  const EntryOutcome first = run_entry(program, params, planned, ws);
  EXPECT_TRUE(first.committed);
  EXPECT_EQ(first.spec_reads, 0u);  // read the prefetched version
  EXPECT_EQ(ws.written.at(key)[0], 101);
  ASSERT_EQ(ws.reads_used.count(key), 1u);
  EXPECT_EQ(ws.reads_used.at(key).version, 7u);

  const EntryOutcome second = run_entry(program, params, planned, ws);
  EXPECT_TRUE(second.committed);
  EXPECT_EQ(second.spec_reads, 1u);  // read first's write, not the store
  EXPECT_EQ(ws.written.at(key)[0], 102);
  // The epoch's read set stays the prefetched version: the speculative
  // read consumed in-epoch state, which the epoch commit itself installs.
  EXPECT_EQ(ws.reads_used.size(), 1u);
  EXPECT_EQ(ws.reads_used.at(key).version, 7u);
}

TEST(Speculation, UnplannedAccessDemotesWithoutPublishing) {
  Workspace ws;
  const ObjectKey home{1, 5};
  // Field 1 points at id 105 — a key outside the planned footprint.
  ws.cache[home] = VersionedRecord{Record{50, 105}, 3};
  const KeyFootprint planned = footprint({{home, true}});

  const EntryOutcome out =
      run_entry(chase_program(), {Record{5}}, planned, ws);
  EXPECT_FALSE(out.committed);
  ASSERT_TRUE(out.mispredicted.has_value());
  EXPECT_EQ(*out.mispredicted, (ObjectKey{1, 105}));
  // Nothing published: dependents read pre-epoch state, the epoch commit
  // carries no trace of the demoted entry.
  EXPECT_TRUE(ws.written.empty());
  EXPECT_TRUE(ws.reads_used.empty());
}

TEST(Speculation, AbsentPlannedKeyDemotes) {
  Workspace ws;
  const ObjectKey key{1, 5};
  ws.absent.insert(key);
  const KeyFootprint planned = footprint({{key, true}});
  const EntryOutcome out =
      run_entry(increment_program(), {Record{5}}, planned, ws);
  EXPECT_FALSE(out.committed);
  ASSERT_TRUE(out.mispredicted.has_value());
  EXPECT_EQ(*out.mispredicted, key);
  EXPECT_TRUE(ws.written.empty());
}

// ---------------------------------------------------------------------------
// EpochService end to end.

TEST(EpochService, ConcurrentSubmissionsCommitThroughEpochs) {
  harness::Cluster cluster(fast_cluster(2));
  const ShardMap map = range_map(2);
  ShardRouter router(map);
  seed_sharded(cluster, map, {1, 5}, Record{100, 0});
  seed_sharded(cluster, map, {1, 105}, Record{100, 0});
  cluster.flush_seeds();

  QueueConfig config;
  config.epoch_wait = std::chrono::milliseconds{5};
  config.epoch_max = 8;
  config.n_executors = 2;
  EpochService service(cluster, router, config);

  const auto inc = increment_program();
  const auto xfer = transfer_program();
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      // Two incrementers on the group-0 key, two cross-group transfers —
      // the transfers force multi-group epochs (one 2PC decision each).
      const bool transfer = t >= 2;
      const ir::TxProgram& program = transfer ? xfer : inc;
      const std::vector<Record> params =
          transfer ? std::vector<Record>{Record{5}, Record{105}}
                   : std::vector<Record>{Record{5}};
      const KeyFootprint predicted = predicted_footprint(program, params);
      ASSERT_FALSE(predicted.empty());
      acn::ExecStats es;
      if (service.submit(program, params, predicted, es) ==
          shard::LaneOutcome::kCommitted) {
        ++committed;
        EXPECT_EQ(es.commits, 1u);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Deterministic replanning retries every validation race away, so all
  // four commit (max_epoch_retries is far above any race this test sees).
  EXPECT_EQ(committed.load(), 4);
  const ServiceStats& stats = service.stats();
  EXPECT_EQ(stats.submitted.load(), 4u);
  EXPECT_EQ(stats.committed.load(), 4u);
  EXPECT_EQ(stats.demoted.load(), 0u);
  EXPECT_GE(stats.epochs.load(), 1u);
  EXPECT_LE(stats.epochs.load(), 4u);
  EXPECT_EQ(stats.epoch_commits.load(), stats.epochs.load());

  // Two increments + two transfers out of key 5, two transfers into 105.
  EXPECT_EQ(latest_sharded(cluster, map, {1, 5}).value.fields[0], 100);
  EXPECT_EQ(latest_sharded(cluster, map, {1, 105}).value.fields[0], 102);
  for (dtm::Server* server : cluster.servers()) {
    EXPECT_EQ(server->open_lease_count(), 0u);
    EXPECT_EQ(server->store().protected_count(), 0u);
  }
}

TEST(EpochService, SameKeyBatchSpeculatesInsideOneEpoch) {
  harness::Cluster cluster(fast_cluster(1));
  const ShardMap map = range_map(1);
  ShardRouter router(map);
  seed_sharded(cluster, map, {1, 5}, Record{0, 0});
  cluster.flush_seeds();

  // One executor, long fill window: hold the epoch open until all four
  // submissions are pending, so they land in ONE epoch and the later
  // entries read the earlier entries' speculative writes.
  QueueConfig config;
  config.epoch_wait = std::chrono::milliseconds{200};
  config.epoch_max = 4;
  config.n_executors = 1;
  EpochService service(cluster, router, config);

  const auto program = increment_program();
  const std::vector<Record> params{Record{5}};
  const KeyFootprint predicted = predicted_footprint(program, params);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      acn::ExecStats es;
      EXPECT_EQ(service.submit(program, params, predicted, es),
                shard::LaneOutcome::kCommitted);
    });
  }
  for (std::thread& t : threads) t.join();

  const ServiceStats& stats = service.stats();
  EXPECT_EQ(stats.committed.load(), 4u);
  EXPECT_EQ(stats.epochs.load(), 1u);
  EXPECT_EQ(stats.epoch_commits.load(), 1u);
  // Entries 2..4 each read their predecessor's published write.
  EXPECT_EQ(stats.spec_reads.load(), 3u);
  EXPECT_EQ(latest_sharded(cluster, map, {1, 5}).value.fields[0], 4);
}

TEST(EpochService, MispredictionDemotesAndEpochStillCommitsTheRest) {
  harness::Cluster cluster(fast_cluster(1));
  const ShardMap map = range_map(1);
  ShardRouter router(map);
  seed_sharded(cluster, map, {1, 5}, Record{100, 42});  // points at id 42
  seed_sharded(cluster, map, {1, 6}, Record{100, 0});
  seed_sharded(cluster, map, {1, 42}, Record{100, 0});
  cluster.flush_seeds();

  QueueConfig config;
  config.epoch_wait = std::chrono::milliseconds{200};
  config.epoch_max = 2;
  config.n_executors = 1;
  EpochService service(cluster, router, config);

  const auto chase = chase_program();
  const auto inc = increment_program();
  std::atomic<int> demoted{0};
  std::thread chaser([&] {
    const std::vector<Record> params{Record{5}};
    acn::ExecStats es;
    if (service.submit(chase, params, predicted_footprint(chase, params),
                       es) == shard::LaneOutcome::kDemoted) {
      ++demoted;
      EXPECT_EQ(es.commits, 0u);  // a demotion folds nothing into stats
    }
  });
  std::thread inccer([&] {
    const std::vector<Record> params{Record{6}};
    acn::ExecStats es;
    EXPECT_EQ(service.submit(inc, params, predicted_footprint(inc, params), es),
              shard::LaneOutcome::kCommitted);
  });
  chaser.join();
  inccer.join();

  EXPECT_EQ(demoted.load(), 1);
  const ServiceStats& stats = service.stats();
  EXPECT_EQ(stats.demoted.load(), 1u);
  EXPECT_EQ(stats.mispredicted.load(), 1u);
  EXPECT_EQ(stats.committed.load(), 1u);
  // The demoted chase published nothing: its keys are untouched.
  EXPECT_EQ(latest_sharded(cluster, map, {1, 5}).value.fields[0], 100);
  EXPECT_EQ(latest_sharded(cluster, map, {1, 42}).value.fields[0], 100);
  EXPECT_EQ(latest_sharded(cluster, map, {1, 6}).value.fields[0], 101);
}

TEST(EpochService, MidEpochCrashLeavesNoOrphanedPrepares) {
  // Four replicas per group: the tree keeps its write quorum constructible
  // with one leaf down; extra quorum re-picks dodge the crashed node.
  auto cluster_config = fast_cluster(2, /*per_group=*/4);
  cluster_config.stub.max_quorum_retries = 16;
  harness::Cluster cluster(cluster_config);
  const ShardMap map = range_map(2);
  ShardRouter router(map);
  seed_sharded(cluster, map, {1, 5}, Record{1000, 0});
  seed_sharded(cluster, map, {1, 105}, Record{1000, 0});
  cluster.flush_seeds();

  QueueConfig config;
  config.epoch_wait = std::chrono::microseconds{200};
  config.epoch_max = 4;
  config.n_executors = 2;
  EpochService service(cluster, router, config);

  const auto program = transfer_program();
  const std::vector<Record> params{Record{5}, Record{105}};
  const KeyFootprint predicted = predicted_footprint(program, params);
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        acn::ExecStats es;
        if (service.submit(program, params, predicted, es) ==
            shard::LaneOutcome::kCommitted)
          ++committed;
      }
    });
  }

  // Crash a group-1 leaf while epochs are in flight, restart it shortly
  // after — the epoch retry loop must absorb the fault window.
  std::this_thread::sleep_for(std::chrono::milliseconds{2});
  const net::NodeId victim = cluster.group_members(1).back();
  cluster.crash_node(victim);
  std::this_thread::sleep_for(std::chrono::milliseconds{5});
  cluster.restart_node(victim, harness::CatchUpScope::kAllReplicas);
  for (std::thread& t : threads) t.join();

  // Every epoch decision was atomic: the transfer sum is invariant and the
  // per-key deltas match the committed count exactly.
  const std::int64_t src =
      latest_sharded(cluster, map, {1, 5}).value.fields[0];
  const std::int64_t dst =
      latest_sharded(cluster, map, {1, 105}).value.fields[0];
  EXPECT_EQ(src + dst, 2000);
  EXPECT_EQ(src, 1000 - committed.load());
  EXPECT_EQ(dst, 1000 + committed.load());
  EXPECT_EQ(service.coordinator_stats().atomicity_breaches.load(), 0u);
  // Zero orphaned prepares: no lease or protected key survives anywhere,
  // including on the crashed-and-rejoined replica.
  for (dtm::Server* server : cluster.servers()) {
    EXPECT_EQ(server->open_lease_count(), 0u);
    EXPECT_EQ(server->store().protected_count(), 0u);
  }
}

// ---------------------------------------------------------------------------
// shard::Client lane dispatch (--exec=queue / --exec=hybrid).

/// A Lane double that records submissions and answers as told.
class RecordingLane final : public shard::Lane {
 public:
  explicit RecordingLane(shard::LaneOutcome answer) : answer_(answer) {}

  shard::LaneOutcome submit(const ir::TxProgram&,
                            const std::vector<ir::Record>&,
                            const KeyFootprint& predicted,
                            acn::ExecStats& stats) override {
    ++submits;
    last_footprint = predicted;
    if (answer_ == shard::LaneOutcome::kCommitted) ++stats.commits;
    return answer_;
  }

  int submits = 0;
  KeyFootprint last_footprint;

 private:
  const shard::LaneOutcome answer_;
};

acn::ExecutorConfig fast_executor() {
  acn::ExecutorConfig config;
  config.backoff_base = std::chrono::microseconds{1};
  return config;
}

TEST(ClientLane, QueueModeRoutesPredictableTransactionsToTheLane) {
  harness::Cluster cluster(fast_cluster(1));
  const ShardMap map = range_map(1);
  ShardRouter router(map);
  seed_sharded(cluster, map, {1, 5}, Record{100, 0});
  cluster.flush_seeds();

  auto lane = std::make_shared<RecordingLane>(shard::LaneOutcome::kCommitted);
  shard::ClientStats stats;
  shard::Client client(cluster, router, stats, 0, fast_executor(), 7,
                       shard::ExecMode::kQueue, lane);
  const auto program = increment_program();
  acn::ExecStats es;
  client.run(harness::Protocol::kFlat, acn::with_program(program),
             {Record{5}}, es);

  EXPECT_EQ(lane->submits, 1);
  EXPECT_EQ(stats.lane_submits.load(), 1u);
  EXPECT_EQ(stats.lane_commits.load(), 1u);
  EXPECT_EQ(es.commits, 1u);
  // The lane owned the transaction: the optimistic paths never ran.
  EXPECT_EQ(stats.fast_path.load(), 0u);
  EXPECT_EQ(stats.cross_shard.load(), 0u);
}

TEST(ClientLane, LaneDemotionFallsThroughToTheOptimisticPath) {
  harness::Cluster cluster(fast_cluster(1));
  const ShardMap map = range_map(1);
  ShardRouter router(map);
  seed_sharded(cluster, map, {1, 5}, Record{100, 0});
  cluster.flush_seeds();

  auto lane = std::make_shared<RecordingLane>(shard::LaneOutcome::kDemoted);
  shard::ClientStats stats;
  shard::Client client(cluster, router, stats, 0, fast_executor(), 7,
                       shard::ExecMode::kQueue, lane);
  const auto program = increment_program();
  acn::ExecStats es;
  client.run(harness::Protocol::kFlat, acn::with_program(program),
             {Record{5}}, es);

  // Demoted by the lane, re-run optimistically, committed for real.
  EXPECT_EQ(lane->submits, 1);
  EXPECT_EQ(stats.lane_demotions.load(), 1u);
  EXPECT_EQ(stats.fast_path.load(), 1u);
  EXPECT_EQ(es.commits, 1u);
  EXPECT_EQ(latest_sharded(cluster, map, {1, 5}).value.fields[0], 101);
}

TEST(ClientLane, HybridRoutesBySchedulerHotness) {
  harness::Cluster cluster(fast_cluster(1));
  const ShardMap map = range_map(1);
  ShardRouter router(map);
  seed_sharded(cluster, map, {1, 5}, Record{100, 0});
  seed_sharded(cluster, map, {1, 7}, Record{100, 0});
  cluster.flush_seeds();

  sched::SchedulerConfig sched_config;
  sched_config.policy = sched::SchedulerPolicy::kQueue;
  sched_config.class_hot_level = 0;  // abort-blame hotness only
  sched::TxScheduler scheduler(sched_config, 1);
  // Heat key {1,5} through the public interface: three blamed aborts
  // reach the default hot_score of 3.0.
  auto& gate = scheduler.session(0);
  gate.admit({});
  for (int i = 0; i < 3; ++i)
    gate.on_full_abort(TxOutcome::kValidation, {ObjectKey{1, 5}});
  gate.finish(TxOutcome::kValidation);
  ASSERT_TRUE(scheduler.is_hot(ObjectKey{1, 5}));

  auto lane = std::make_shared<RecordingLane>(shard::LaneOutcome::kCommitted);
  shard::ClientStats stats;
  shard::Client client(cluster, router, stats, 0, fast_executor(), 7,
                       shard::ExecMode::kHybrid, lane);
  const auto program = increment_program();
  acn::RunOptions options = acn::with_program(program);
  options.scheduler = &gate;

  // Cold key: stays optimistic.
  acn::ExecStats cold;
  client.run(harness::Protocol::kFlat, options, {Record{7}}, cold);
  EXPECT_EQ(lane->submits, 0);
  EXPECT_EQ(stats.fast_path.load(), 1u);
  EXPECT_EQ(cold.commits, 1u);

  // Hot key: routed to the deterministic lane.
  acn::ExecStats hot;
  client.run(harness::Protocol::kFlat, options, {Record{5}}, hot);
  EXPECT_EQ(lane->submits, 1);
  EXPECT_EQ(stats.lane_submits.load(), 1u);
  EXPECT_EQ(hot.commits, 1u);

  // Without a scheduler gate hybrid has no hotness signal: optimistic.
  acn::ExecStats ungated;
  client.run(harness::Protocol::kFlat, acn::with_program(program),
             {Record{5}}, ungated);
  EXPECT_EQ(lane->submits, 1);
  EXPECT_EQ(stats.fast_path.load(), 2u);
}

TEST(ClientLane, RealEpochLaneBehindQueueModeClient) {
  harness::Cluster cluster(fast_cluster(2));
  const ShardMap map = range_map(2);
  ShardRouter router(map);
  seed_sharded(cluster, map, {1, 5}, Record{100, 0});
  seed_sharded(cluster, map, {1, 105}, Record{100, 0});
  cluster.flush_seeds();

  QueueConfig config;
  config.epoch_wait = std::chrono::microseconds{100};
  auto lane = std::make_shared<EpochService>(cluster, router, config);
  shard::ClientStats stats;
  shard::Client client(cluster, router, stats, 0, fast_executor(), 7,
                       shard::ExecMode::kQueue,
                       std::static_pointer_cast<shard::Lane>(lane));
  const auto program = transfer_program();
  acn::ExecStats es;
  for (int i = 0; i < 3; ++i)
    client.run(harness::Protocol::kFlat, acn::with_program(program),
               {Record{5}, Record{105}}, es);

  EXPECT_EQ(es.commits, 3u);
  EXPECT_EQ(stats.lane_commits.load(), 3u);
  EXPECT_EQ(lane->stats().committed.load(), 3u);
  EXPECT_EQ(latest_sharded(cluster, map, {1, 5}).value.fields[0], 97);
  EXPECT_EQ(latest_sharded(cluster, map, {1, 105}).value.fields[0], 103);
}

}  // namespace
}  // namespace acn::queue
