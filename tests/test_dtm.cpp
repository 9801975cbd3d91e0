// QR-DTM protocol tests: quorum reads with version reconciliation,
// incremental validation, two-phase commit, protection conflicts, fault
// injection and contention plumbing — at the stub/server level.
#include <gtest/gtest.h>

#include <deque>
#include <unordered_map>

#include "src/common/rng.hpp"
#include "src/dtm/remembered_set.hpp"
#include "src/harness/cluster.hpp"
#include "src/workloads/workload.hpp"

namespace acn::dtm {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using store::ObjectKey;
using store::Record;

ClusterConfig fast_config(std::size_t n_servers = 10) {
  ClusterConfig config;
  config.n_servers = n_servers;
  config.base_latency = std::chrono::nanoseconds{0};  // no sleeping in tests
  config.stub.retry.max_retries = 2;
  config.stub.retry.base = std::chrono::nanoseconds{1000};
  return config;
}

const ObjectKey kA{1, 1};
const ObjectKey kB{1, 2};

TEST(QuorumStub, ReadReturnsSeededValue) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{7});
  auto stub = cluster.make_stub(0);
  const auto out = stub.read(1, kA, {});
  EXPECT_EQ(out.record.value, Record{7});
  EXPECT_EQ(out.record.version, 1u);
}

TEST(QuorumStub, ReadPicksNewestReplica) {
  // Two-node tree; with root_read_bias=0 the read quorum is exactly the
  // leaf {1}; seed the leaf with the newer version.
  auto config = fast_config(2);
  config.root_read_bias = 0.0;
  Cluster cluster(config);
  cluster.server(0).store().seed(kA, Record{10}, 1);
  cluster.server(1).store().seed(kA, Record{50}, 5);
  auto stub = cluster.make_stub(0);
  const auto out = stub.read(1, kA, {});
  EXPECT_EQ(out.record.version, 5u);
  EXPECT_EQ(out.record.value, Record{50});
}

TEST(QuorumStub, MissingObjectThrows) {
  Cluster cluster(fast_config());
  auto stub = cluster.make_stub(0);
  EXPECT_THROW(stub.read(1, ObjectKey{9, 9}, {}), ObjectMissing);
}

TEST(QuorumStub, CommitInstallsNewVersionVisibleToOthers) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{7});
  auto writer = cluster.make_stub(0);
  auto reader = cluster.make_stub(1);

  const auto before = writer.read(1, kA, {});
  const auto ticket = writer.prepare(1, {{kA, before.record.version}}, {kA},
                                     {before.record.version});
  EXPECT_EQ(ticket.new_versions, (std::vector<Version>{2}));
  writer.commit(ticket, {Record{8}});

  const auto after = reader.read(2, kA, {});
  EXPECT_EQ(after.record.value, Record{8});
  EXPECT_EQ(after.record.version, 2u);
}

TEST(QuorumStub, IncrementalValidationDetectsConcurrentCommit) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{1});
  workloads::seed_all(cluster.servers(), kB, Record{2});
  auto t1 = cluster.make_stub(0);
  auto t2 = cluster.make_stub(1);

  const auto a = t1.read(1, kA, {});  // T1 reads A@1

  // T2 commits a new A.
  const auto a2 = t2.read(2, kA, {});
  const auto ticket =
      t2.prepare(2, {{kA, a2.record.version}}, {kA}, {a2.record.version});
  t2.commit(ticket, {Record{100}});

  // T1's next read carries {A@1} for incremental validation -> abort.
  try {
    t1.read(1, kB, {{kA, a.record.version}});
    FAIL() << "expected TxAbort";
  } catch (const TxAbort& abort) {
    EXPECT_EQ(abort.kind(), AbortKind::kValidation);
    ASSERT_EQ(abort.invalid().size(), 1u);
    EXPECT_EQ(abort.invalid()[0], kA);
  }
}

TEST(QuorumStub, PrepareRejectsStaleReadSet) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{1});
  auto t1 = cluster.make_stub(0);
  auto t2 = cluster.make_stub(1);

  const auto a1 = t1.read(1, kA, {});

  const auto a2 = t2.read(2, kA, {});
  t2.commit(t2.prepare(2, {{kA, a2.record.version}}, {kA}, {a2.record.version}),
            {Record{5}});

  EXPECT_THROW(
      t1.prepare(1, {{kA, a1.record.version}}, {kA}, {a1.record.version}),
      TxAbort);
}

TEST(QuorumStub, ReadBusyOnProtectedObject) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{1});
  for (auto* server : cluster.servers())
    ASSERT_TRUE(server->store().try_protect(kA, 999));
  auto stub = cluster.make_stub(0);
  try {
    stub.read(1, kA, {});
    FAIL() << "expected TxAbort";
  } catch (const TxAbort& abort) {
    EXPECT_EQ(abort.kind(), AbortKind::kBusy);
  }
}

TEST(QuorumStub, PrepareBusyOnProtectedObject) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{1});
  for (auto* server : cluster.servers())
    ASSERT_TRUE(server->store().try_protect(kA, 999));
  auto stub = cluster.make_stub(0);
  try {
    stub.prepare(1, {}, {kA}, {1});
    FAIL() << "expected TxAbort";
  } catch (const TxAbort& abort) {
    EXPECT_EQ(abort.kind(), AbortKind::kBusy);
  }
}

TEST(QuorumStub, FailedPrepareLeavesNothingProtected) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{1});
  workloads::seed_all(cluster.servers(), kB, Record{1});
  // Protect kB everywhere so prepare over {kA, kB} fails after kA.
  for (auto* server : cluster.servers())
    ASSERT_TRUE(server->store().try_protect(kB, 999));
  auto stub = cluster.make_stub(0);
  EXPECT_THROW(stub.prepare(1, {}, {kA, kB}, {1, 1}), TxAbort);
  // kA must have been released on every replica.
  for (auto* server : cluster.servers())
    EXPECT_NE(server->store().read(kA).status, store::ReadStatus::kProtected);
}

TEST(QuorumStub, AbortReleasesPreparedObjects) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{1});
  auto stub = cluster.make_stub(0);
  const auto ticket = stub.prepare(1, {}, {kA}, {1});
  stub.abort(ticket);
  const auto out = stub.read(2, kA, {});
  EXPECT_EQ(out.record.value, Record{1});  // unchanged and readable
}

TEST(QuorumStub, ValidatePassesWhenUnchangedAndFailsAfterCommit) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{1});
  auto t1 = cluster.make_stub(0);
  auto t2 = cluster.make_stub(1);

  const auto a = t1.read(1, kA, {});
  EXPECT_NO_THROW(t1.validate(1, {{kA, a.record.version}}));

  const auto a2 = t2.read(2, kA, {});
  t2.commit(t2.prepare(2, {{kA, a2.record.version}}, {kA}, {a2.record.version}),
            {Record{3}});
  EXPECT_THROW(t1.validate(1, {{kA, a.record.version}}), TxAbort);
}

TEST(QuorumStub, ContentionLevelsReflectCommittedWrites) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{1});
  auto stub = cluster.make_stub(0);

  for (int i = 0; i < 3; ++i) {
    const auto a = stub.read(10 + i, kA, {});
    const auto ticket = stub.prepare(10 + i, {{kA, a.record.version}}, {kA},
                                     {a.record.version});
    stub.commit(ticket, {Record{i}});
  }
  cluster.roll_contention_windows();
  const auto levels = stub.contention_levels({kA.cls, 77});
  EXPECT_EQ(levels[0], 3u);
  EXPECT_EQ(levels[1], 0u);
}

TEST(QuorumStub, PiggybackedContentionOnRead) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{1});
  auto stub = cluster.make_stub(0);
  const auto a = stub.read(1, kA, {});
  stub.commit(
      stub.prepare(1, {{kA, a.record.version}}, {kA}, {a.record.version}),
      {Record{2}});
  cluster.roll_contention_windows();
  const auto out = stub.read(2, kA, {}, {kA.cls});
  ASSERT_EQ(out.contention.size(), 1u);
  EXPECT_EQ(out.contention[0], 1u);
}

TEST(QuorumStub, ReadSurvivesNonRootNodeDown) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{4});
  cluster.network().set_node_down(5, true);
  auto stub = cluster.make_stub(0);
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(stub.read(1, kA, {}).record.value, Record{4});
}

TEST(QuorumStub, WritesRequireTheRoot) {
  // The tree quorum's known property: every write quorum contains the root.
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{4});
  cluster.network().set_node_down(0, true);
  auto stub = cluster.make_stub(0);
  try {
    stub.prepare(1, {}, {kA}, {1});
    FAIL() << "expected TxAbort";
  } catch (const TxAbort& abort) {
    EXPECT_EQ(abort.kind(), AbortKind::kUnavailable);
  }
}

TEST(QuorumStub, PrepareSurvivesNonRootNodeDown) {
  // A partly-down write quorum must re-select around the down node — the
  // same ladder read() climbs — not give up on the first attempt.  Node 9
  // is a leaf of the 10-node ternary tree, so write quorums avoiding it
  // exist; a few re-selections always find one.
  auto config = fast_config();
  config.stub.max_quorum_retries = 16;
  Cluster cluster(config);
  workloads::seed_all(cluster.servers(), kA, Record{4});
  cluster.network().set_node_down(9, true);
  auto stub = cluster.make_stub(0);
  for (int i = 0; i < 10; ++i) {
    const auto a = stub.read(1 + i, kA, {});
    const auto ticket = stub.prepare(1 + i, {{kA, a.record.version}}, {kA},
                                     {a.record.version});
    stub.commit(ticket, {Record{a.record.value[0] + 1}});
  }
  EXPECT_EQ(stub.read(100, kA, {}).record.value, Record{14});
}

TEST(QuorumStub, ValidateRetriesUnreachableQuorums) {
  // An unreachable read quorum must not pass validation by silence.
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{4});
  cluster.network().set_drop_probability(1.0);
  auto stub = cluster.make_stub(0);
  try {
    stub.validate(1, {{kA, 1}});
    FAIL() << "expected TxAbort";
  } catch (const TxAbort& abort) {
    EXPECT_EQ(abort.kind(), AbortKind::kUnavailable);
  }
}

TEST(QuorumStub, TotalPacketLossIsUnavailable) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{4});
  cluster.network().set_drop_probability(1.0);
  auto stub = cluster.make_stub(0);
  try {
    stub.read(1, kA, {});
    FAIL() << "expected TxAbort";
  } catch (const TxAbort& abort) {
    EXPECT_EQ(abort.kind(), AbortKind::kUnavailable);
  }
}

TEST(QuorumStub, CommitReplayIsIdempotent) {
  // A client that never saw its commit acks re-sends phase two; every
  // member acks kDuplicate and the store is untouched (version guard).
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{1});
  auto stub = cluster.make_stub(0);
  const auto a = stub.read(1, kA, {});
  const auto ticket =
      stub.prepare(1, {{kA, a.record.version}}, {kA}, {a.record.version});
  stub.commit(ticket, {Record{2}});
  EXPECT_NO_THROW(stub.commit(ticket, {Record{2}}));  // full replay

  EXPECT_EQ(stub.read(2, kA, {}).record.version, 2u);
  EXPECT_EQ(stub.read(2, kA, {}).record.value, Record{2});
  std::uint64_t replays = 0;
  for (auto* server : cluster.servers())
    replays += server->stats().commit_replays.load();
  EXPECT_GT(replays, 0u);
}

TEST(QuorumStub, CommitRetriesThroughResponseDrops) {
  // Lossy ack legs from the root: the client replays phase two until every
  // member acked, so the commit still lands on the full write quorum.
  auto config = fast_config();
  config.stub.max_commit_replays = 64;
  Cluster cluster(config);
  workloads::seed_all(cluster.servers(), kA, Record{1});
  auto stub = cluster.make_stub(0);
  const auto a = stub.read(1, kA, {});
  const auto ticket =
      stub.prepare(1, {{kA, a.record.version}}, {kA}, {a.record.version});
  // Drop 70% of root->client responses only: requests keep arriving.
  cluster.network().set_link_fault(0, stub.client_node(),
                                   net::LinkFault{0.7, {}});
  EXPECT_NO_THROW(stub.commit(ticket, {Record{5}}));
  cluster.network().clear_link_faults();
  EXPECT_EQ(stub.read(2, kA, {}).record.value, Record{5});
  EXPECT_EQ(cluster.server(0).store().read(kA).record.version, 2u);
}

TEST(Server, StatsCountRequests) {
  Cluster cluster(fast_config(1));
  workloads::seed_all(cluster.servers(), kA, Record{1});
  auto stub = cluster.make_stub(0);
  stub.read(1, kA, {});
  const auto a = stub.read(1, kA, {});
  stub.commit(
      stub.prepare(1, {{kA, a.record.version}}, {kA}, {a.record.version}),
      {Record{2}});
  const auto& stats = cluster.server(0).stats();
  EXPECT_GE(stats.reads.load(), 2u);
  EXPECT_EQ(stats.prepares.load(), 1u);
  EXPECT_EQ(stats.commits.load(), 1u);
}

TEST(Messages, ApproxSizesScaleWithPayload) {
  ReadRequest small{1, kA, {}, {}};
  ReadRequest big{1, kA, std::vector<VersionCheck>(10), {}};
  EXPECT_GT(big.approx_size(), small.approx_size());

  CommitRequest commit{1, {kA}, {Record{1, 2, 3}}, {2}};
  EXPECT_GT(commit.approx_size(), 24u);

  Request request;
  request.payload = small;
  EXPECT_EQ(request.approx_size(), small.approx_size());
}

// Reference model of RememberedTxSet: a FIFO of insertion events capped at
// `cap`; evicting an event forgets its id only if that event is the id's
// latest insertion and the id was not erased since.
class ReferenceTxSet {
 public:
  explicit ReferenceTxSet(std::size_t cap) : cap_(cap) {}

  bool insert(TxId tx) {
    if (live_.count(tx) != 0) return false;
    events_.push_back({tx, ++seq_});
    live_[tx] = seq_;
    if (events_.size() > cap_) {
      const auto [old, seq] = events_.front();
      events_.pop_front();
      const auto it = live_.find(old);
      if (it != live_.end() && it->second == seq) live_.erase(it);
    }
    return true;
  }
  bool erase(TxId tx) { return live_.erase(tx) != 0; }
  bool contains(TxId tx) const { return live_.count(tx) != 0; }
  std::size_t size() const { return live_.size(); }

 private:
  std::size_t cap_;
  std::uint64_t seq_ = 0;
  std::deque<std::pair<TxId, std::uint64_t>> events_;
  std::unordered_map<TxId, std::uint64_t> live_;
};

TEST(RememberedTxSet, MatchesReferenceModelOnRandomOperations) {
  for (const std::size_t cap : {1u, 2u, 16u, 64u, 1024u}) {
    RememberedTxSet set(cap);
    ReferenceTxSet model(cap);
    Rng rng(cap);
    // Ids from a range a few times the cap: re-inserts, erases of live and
    // forgotten ids, and evictions of stale events all happen often.
    const std::uint64_t id_range = 4 * cap + 3;
    for (int op = 0; op < 200'000; ++op) {
      const TxId tx = rng.uniform(0, id_range);
      const std::uint64_t dice = rng.uniform(0, 9);
      if (dice < 5)
        ASSERT_EQ(set.insert(tx), model.insert(tx)) << "cap " << cap;
      else if (dice < 7)
        ASSERT_EQ(set.erase(tx), model.erase(tx)) << "cap " << cap;
      else
        ASSERT_EQ(set.contains(tx), model.contains(tx)) << "cap " << cap;
      ASSERT_EQ(set.size(), model.size()) << "cap " << cap;
    }
    for (TxId tx = 0; tx <= id_range; ++tx)
      ASSERT_EQ(set.contains(tx), model.contains(tx)) << "cap " << cap;
    set.clear();
    EXPECT_EQ(set.size(), 0u);
    EXPECT_FALSE(set.contains(1));
  }
}

TEST(RememberedTxSet, EvictingAStaleInsertionKeepsTheReinsertedId) {
  constexpr std::size_t kCap = 64;
  RememberedTxSet set(kCap);
  ASSERT_TRUE(set.insert(7));
  ASSERT_TRUE(set.erase(7));
  ASSERT_TRUE(set.insert(7));
  for (TxId tx = 1000; tx < 1000 + kCap - 1; ++tx) ASSERT_TRUE(set.insert(tx));
  EXPECT_TRUE(set.contains(7));
  ASSERT_TRUE(set.insert(5000));  // evicts the re-insertion of 7
  EXPECT_FALSE(set.contains(7));
}

TEST(RememberedTxSet, CostsAtMost24BytesPerIdWhenFull) {
  constexpr std::size_t kCap = 1 << 16;
  RememberedTxSet set(kCap);
  for (TxId tx = 1; tx <= 2 * kCap; ++tx) set.insert(tx);
  EXPECT_EQ(set.size(), kCap);
  EXPECT_LE(set.heap_bytes(), 24 * kCap);
}

TEST(RememberedTxSet, RejectsCapThatIsNotAPowerOfTwo) {
  EXPECT_THROW(RememberedTxSet(0), std::invalid_argument);
  EXPECT_THROW(RememberedTxSet(48), std::invalid_argument);
}

TEST(Server, PresumedAbortSurvivesASecondExpiryAfterARetriedPrepare) {
  // A transaction whose lease expires, prepares again and expires again
  // must stay presumed aborted until a full cap of other transactions has
  // expired after it, so a late commit is still refused.
  constexpr std::size_t kCap = 1 << 16;  // the server's memory cap
  Server server(0, 0, /*prepare_lease_ns=*/1);
  const auto prepare_and_expire = [&](TxId tx) {
    PrepareRequest prepare;
    prepare.tx = tx;
    Request request;
    request.payload = prepare;
    const auto response = server.handle(100, request);
    ASSERT_EQ(std::get<PrepareResponse>(response.payload).code,
              PrepareCode::kOk);
    while (server.expire_stale_leases() == 0) {
    }
  };
  constexpr TxId kLate = 1;
  prepare_and_expire(kLate);
  prepare_and_expire(kLate);  // the retry supersedes the first verdict
  for (TxId tx = 2; tx < 2 + kCap - 1; ++tx) prepare_and_expire(tx);

  Request late;
  late.payload = CommitRequest{kLate, {kA}, {Record{9}}, {1}};
  EXPECT_EQ(std::get<CommitResponse>(server.handle(100, late).payload).code,
            CommitCode::kExpired);
  EXPECT_EQ(server.store().read(kA).status, store::ReadStatus::kMissing);
}

}  // namespace
}  // namespace acn::dtm
