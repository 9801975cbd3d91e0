// Fault-injection and recovery tests: prepare leases (presumed abort),
// idempotent phase two, retry-ladder deadlines, crash/rejoin catch-up, and
// the declarative ChaosController schedule — the subsystem behind
// bench/abl_faults and bench/abl_partition.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "src/chaos/chaos.hpp"
#include "src/common/clock.hpp"
#include "src/harness/driver.hpp"
#include "src/workloads/bank.hpp"
#include "src/workloads/workload.hpp"

namespace acn::chaos {
namespace {

using namespace std::chrono_literals;
using harness::CatchUpScope;
using harness::Cluster;
using harness::ClusterConfig;
using store::ObjectKey;
using store::Record;

ClusterConfig fast_config(std::size_t n_servers = 10) {
  ClusterConfig config;
  config.n_servers = n_servers;
  config.base_latency = std::chrono::nanoseconds{0};
  config.stub.retry.max_retries = 2;
  config.stub.retry.base = std::chrono::nanoseconds{1000};
  return config;
}

const ObjectKey kA{1, 1};

void expire_everywhere(Cluster& cluster) {
  for (auto* server : cluster.servers()) server->expire_stale_leases();
}

std::size_t protected_everywhere(Cluster& cluster) {
  std::size_t total = 0;
  for (auto* server : cluster.servers())
    total += server->store().protected_count();
  return total;
}

TEST(LeafVictims, DerivedFromTopologyNeverTheRoot) {
  Cluster ten(fast_config(10));  // ternary tree: leaves are 4..9
  EXPECT_EQ(ChaosController::leaf_victims(ten, 3),
            (std::vector<net::NodeId>{9, 8, 7}));
  EXPECT_EQ(ChaosController::leaf_victims(ten, 4),
            (std::vector<net::NodeId>{9, 8, 7, 6}));

  Cluster four(fast_config(4));  // root 0 with leaves 1..3
  const auto victims = ChaosController::leaf_victims(four, 8);
  EXPECT_EQ(victims, (std::vector<net::NodeId>{3, 2, 1}));
  for (const auto id : victims) EXPECT_NE(id, 0);
}

TEST(Leases, ExpiryReleasesOrphanedPrepare) {
  auto config = fast_config();
  config.prepare_lease_ns = 2'000'000;  // 2ms
  Cluster cluster(config);
  workloads::seed_all(cluster.servers(), kA, Record{7});

  // Prepare and walk away — the crashed-client scenario.
  auto doomed = cluster.make_stub(0);
  doomed.prepare(1, {}, {kA}, {1});
  EXPECT_GT(protected_everywhere(cluster), 0u);

  std::this_thread::sleep_for(10ms);
  expire_everywhere(cluster);  // the sweep normally runs inside handle()

  EXPECT_EQ(protected_everywhere(cluster), 0u);
  std::uint64_t expired = 0;
  std::size_t open = 0;
  for (auto* server : cluster.servers()) {
    expired += server->stats().leases_expired.load();
    open += server->open_lease_count();
  }
  EXPECT_GT(expired, 0u);
  EXPECT_EQ(open, 0u);

  // The key is usable again: another transaction commits through it.
  auto stub = cluster.make_stub(1);
  const auto out = stub.read(2, kA, {});
  stub.commit(
      stub.prepare(2, {{kA, out.record.version}}, {kA}, {out.record.version}),
      {Record{8}});
  EXPECT_EQ(stub.read(3, kA, {}).record.value, Record{8});
}

TEST(Leases, LateCommitAfterExpiryIsRefused) {
  auto config = fast_config();
  config.prepare_lease_ns = 2'000'000;  // 2ms
  Cluster cluster(config);
  workloads::seed_all(cluster.servers(), kA, Record{7});

  auto stub = cluster.make_stub(0);
  const auto ticket = stub.prepare(1, {}, {kA}, {1});
  std::this_thread::sleep_for(10ms);
  expire_everywhere(cluster);  // presumed abort

  try {
    stub.commit(ticket, {Record{9}});
    FAIL() << "expected TxAbort";
  } catch (const dtm::TxAbort& abort) {
    EXPECT_EQ(abort.kind(), dtm::AbortKind::kBusy);
  }
  // The write must not have taken effect anywhere.
  EXPECT_EQ(stub.read(2, kA, {}).record.value, Record{7});
  EXPECT_EQ(stub.read(2, kA, {}).record.version, 1u);
  std::uint64_t rejected = 0;
  for (auto* server : cluster.servers())
    rejected += server->stats().commits_rejected.load();
  EXPECT_GT(rejected, 0u);
}

TEST(Leases, FreshPrepareSupersedesPresumedAbort) {
  // A transaction whose first prepare expired may legitimately retry from
  // scratch; the re-prepare must clear the presumed-abort verdict so its
  // second commit is accepted.
  auto config = fast_config();
  config.prepare_lease_ns = 2'000'000;
  Cluster cluster(config);
  workloads::seed_all(cluster.servers(), kA, Record{7});

  auto stub = cluster.make_stub(0);
  stub.prepare(5, {}, {kA}, {1});
  std::this_thread::sleep_for(10ms);
  expire_everywhere(cluster);

  const auto ticket = stub.prepare(5, {}, {kA}, {1});
  EXPECT_NO_THROW(stub.commit(ticket, {Record{11}}));
  EXPECT_EQ(stub.read(6, kA, {}).record.value, Record{11});
}

TEST(RetryLadder, DeadlineBoundsBusyRetries) {
  auto config = fast_config();
  config.stub.retry.max_retries = 1 << 20;  // retries alone would spin ~forever
  config.stub.retry.base = std::chrono::microseconds{10};
  config.stub.op_deadline = std::chrono::milliseconds{5};
  Cluster cluster(config);
  workloads::seed_all(cluster.servers(), kA, Record{1});
  for (auto* server : cluster.servers())
    ASSERT_TRUE(server->store().try_protect(kA, 999));

  auto stub = cluster.make_stub(0);
  Stopwatch watch;
  try {
    stub.read(1, kA, {});
    FAIL() << "expected TxAbort";
  } catch (const dtm::TxAbort& abort) {
    EXPECT_EQ(abort.kind(), dtm::AbortKind::kBusy);
  }
  // The deadline, not the (astronomical) retry cap, ended the ladder.
  EXPECT_LT(watch.elapsed_ns(), 2'000'000'000u);
}

TEST(RetryLadder, DeadlineBoundsUnreachableRetries) {
  auto config = fast_config();
  config.stub.max_quorum_retries = 1 << 20;
  config.stub.retry.base = std::chrono::microseconds{10};
  config.stub.op_deadline = std::chrono::milliseconds{5};
  Cluster cluster(config);
  workloads::seed_all(cluster.servers(), kA, Record{1});
  cluster.network().set_drop_probability(1.0);

  auto stub = cluster.make_stub(0);
  Stopwatch watch;
  try {
    stub.read(1, kA, {});
    FAIL() << "expected TxAbort";
  } catch (const dtm::TxAbort& abort) {
    EXPECT_EQ(abort.kind(), dtm::AbortKind::kUnavailable);
  }
  EXPECT_LT(watch.elapsed_ns(), 2'000'000'000u);
}

TEST(Recovery, CrashRejoinCatchesUpFromReadQuorum) {
  auto config = fast_config();
  config.stub.max_quorum_retries = 16;  // re-select around the crashed leaf
  Cluster cluster(config);
  workloads::seed_all(cluster.servers(), kA, Record{0});

  cluster.crash_node(9);
  EXPECT_TRUE(cluster.network().node_down(9));

  auto stub = cluster.make_stub(0);
  for (int i = 0; i < 10; ++i) {
    const auto a = stub.read(1 + i, kA, {});
    stub.commit(
        stub.prepare(1 + i, {{kA, a.record.version}}, {kA}, {a.record.version}),
        {Record{a.record.value[0] + 1}});
  }

  const std::size_t caught_up = cluster.restart_node(9);
  EXPECT_FALSE(cluster.network().node_down(9));
  EXPECT_GE(caught_up, 1u);
  // The rejoined replica holds the newest version of the hot key — read
  // quorums intersect write quorums, so the sync source had it.
  const auto local = cluster.server(9).store().read(kA);
  EXPECT_EQ(local.status, store::ReadStatus::kOk);
  EXPECT_EQ(local.record.version, 11u);
  EXPECT_EQ(local.record.value, Record{10});
  // An exhaustive re-sync finds nothing the quorum sync missed.
  cluster.crash_node(9);
  EXPECT_EQ(cluster.restart_node(9, CatchUpScope::kAllReplicas), 0u);
}

TEST(Recovery, RejoinFinishesAPrepareItsGroupCommittedWhileItWasDown) {
  Cluster cluster(fast_config());  // no prepare lease: nothing expires
  workloads::seed_all(cluster.servers(), kA, Record{0});

  // Every replica prepares; node 9 crashes before phase two reaches it.
  const dtm::TxId tx = 77;
  dtm::Request request;
  request.payload = dtm::PrepareRequest{tx, {}, {kA}};
  for (dtm::Server* server : cluster.servers()) server->handle(100, request);
  cluster.crash_node(9);
  request.payload = dtm::CommitRequest{tx, {kA}, {Record{5}}, {2}};
  for (std::size_t i = 0; i < 9; ++i) cluster.server(i).handle(100, request);
  EXPECT_EQ(cluster.server(9).open_lease_count(), 1u);

  cluster.restart_node(9);
  dtm::Server& rejoined = cluster.server(9);
  EXPECT_EQ(rejoined.open_lease_count(), 0u);
  EXPECT_EQ(rejoined.store().protected_count(), 0u);
  const auto local = rejoined.store().read(kA);
  EXPECT_EQ(local.status, store::ReadStatus::kOk);
  EXPECT_EQ(local.record.value, Record{5});
  EXPECT_EQ(local.record.version, 2u);
  // The coordinator's late replay is acknowledged as a duplicate.
  const auto replay = rejoined.handle(100, request);
  EXPECT_EQ(std::get<dtm::CommitResponse>(replay.payload).code,
            dtm::CommitCode::kDuplicate);
}

TEST(Recovery, RestartUnknownNodeThrows) {
  Cluster cluster(fast_config(4));
  EXPECT_THROW(cluster.restart_node(99), std::invalid_argument);
}

TEST(Controller, FiresScheduleAndStopHeals) {
  Cluster cluster(fast_config(4));
  workloads::seed_all(cluster.servers(), kA, Record{1});

  FaultPlan plan;
  plan.drop_burst(0ms, 0.5, 10ms);
  plan.latency_spike(0ms, std::chrono::microseconds{100}, 10ms);
  plan.crash(5ms, {3});                 // no restart: stop() must rejoin it
  plan.isolate(5ms, {2});               // no heal: stop() must clear it
  ASSERT_EQ(plan.events().size(), 6u);  // burst+restore, spike+restore, 2

  ChaosController chaos(cluster, plan, nullptr, /*verbose=*/false);
  chaos.start();
  chaos.stop();  // waits for the tail of the schedule, then heals

  EXPECT_EQ(chaos.events_fired(), plan.events().size());
  auto& net = cluster.network();
  EXPECT_EQ(net.drop_probability(), 0.0);
  EXPECT_EQ(net.extra_latency(), std::chrono::nanoseconds{0});
  EXPECT_FALSE(net.partitioned());
  for (std::size_t i = 0; i < cluster.size(); ++i)
    EXPECT_FALSE(net.node_down(static_cast<net::NodeId>(i)));
  // stop() is idempotent.
  EXPECT_NO_THROW(chaos.stop());
}

TEST(Controller, CrashLoseDiskWipesTheVictimBeforeRejoin) {
  auto config = fast_config(4);
  config.durability.mode = harness::DurabilityMode::kWal;
  config.durability.data_dir = "wal-test-chaos-losedisk";
  config.durability.flush_interval_ns = 0;
  config.durability.fsync = false;
  std::filesystem::remove_all(config.durability.data_dir);
  Cluster cluster(config);
  workloads::seed_all(cluster.servers(), kA, Record{7});
  cluster.checkpoint_all();
  ASSERT_NE(cluster.persistence(3), nullptr);
  ASSERT_FALSE(cluster.persistence(3)->snapshot_seqs().empty());

  FaultPlan plan;
  plan.crash_lose_disk(0ms, {3});  // no restart: stop() must rejoin it
  ASSERT_EQ(plan.events().size(), 1u);
  ChaosController chaos(cluster, plan, nullptr, /*verbose=*/false);
  chaos.start();
  // Wait for the event, then observe the wiped disk while still down.
  while (!cluster.network().node_down(3)) std::this_thread::sleep_for(1ms);
  EXPECT_TRUE(cluster.persistence(3)->snapshot_seqs().empty());
  EXPECT_TRUE(cluster.persistence(3)->segment_seqs().empty());
  chaos.stop();

  EXPECT_EQ(chaos.events_fired(), 1u);
  EXPECT_FALSE(cluster.network().node_down(3));
  // Recovery found an empty disk; the peer sync rebuilt the replica.
  const auto local = cluster.server(3).store().read(kA);
  ASSERT_EQ(local.status, store::ReadStatus::kOk);
  EXPECT_EQ(local.record.value, Record{7});
  std::filesystem::remove_all(config.durability.data_dir);
}

TEST(Controller, PartitionThenHealKeepsBankInvariant) {
  auto config = fast_config();
  config.prepare_lease_ns = 50'000'000;  // 50ms
  config.stub.retry.max_retries = 10;
  config.stub.max_quorum_retries = 16;
  config.stub.op_deadline = std::chrono::milliseconds{200};
  Cluster cluster(config);
  workloads::Bank bank;
  bank.seed(cluster.servers());

  const auto victims = ChaosController::leaf_victims(cluster, 2);
  FaultPlan plan;
  plan.drop_burst(20ms, 0.05, 120ms);
  plan.isolate(40ms, victims, /*heal_after=*/80ms);

  ChaosController chaos(cluster, plan, nullptr, /*verbose=*/false);

  harness::DriverConfig driver;
  driver.n_clients = 3;
  driver.intervals = 4;
  driver.interval = std::chrono::milliseconds{50};
  driver.check_invariants = true;  // run() throws if the Bank sum drifts

  chaos.start();
  const auto result =
      harness::run(cluster, bank, harness::Protocol::kAcn, driver);
  chaos.stop();

  EXPECT_GT(result.stats.commits, 0u);
  // Any prepare orphaned by the partition holds a 50ms lease at most.
  std::this_thread::sleep_for(60ms);
  expire_everywhere(cluster);
  EXPECT_EQ(protected_everywhere(cluster), 0u);
}

}  // namespace
}  // namespace acn::chaos
