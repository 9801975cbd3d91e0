// Closed-nesting (QR-CN) tests: frame semantics, read-your-writes across
// frames, merge-on-commit, partial vs full abort classification, and a
// concurrent serializability check via the bank invariant.
#include <gtest/gtest.h>

#include <thread>

#include "src/harness/cluster.hpp"
#include "src/nesting/transaction.hpp"
#include "src/obs/obs.hpp"
#include "src/workloads/workload.hpp"

namespace acn::nesting {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using store::ObjectKey;
using store::Record;

ClusterConfig fast_config(std::size_t n = 7) {
  ClusterConfig config;
  config.n_servers = n;
  config.base_latency = std::chrono::nanoseconds{0};
  config.stub.retry.max_retries = 3;
  config.stub.retry.base = std::chrono::nanoseconds{1000};
  return config;
}

const ObjectKey kA{1, 1};
const ObjectKey kB{1, 2};
const ObjectKey kC{2, 1};

class NestingTest : public ::testing::Test {
 protected:
  NestingTest() : cluster_(fast_config()) {
    workloads::seed_all(cluster_.servers(), kA, Record{10});
    workloads::seed_all(cluster_.servers(), kB, Record{20});
    workloads::seed_all(cluster_.servers(), kC, Record{30});
  }
  Cluster cluster_;
};

TEST_F(NestingTest, ReadCachesAndCountsStats) {
  auto stub = cluster_.make_stub(0);
  Transaction txn(stub, next_tx_id());
  obs::Observability bundle;
  txn.set_obs(&bundle);
  EXPECT_EQ(txn.read(kA), Record{10});
  EXPECT_EQ(txn.read(kA), Record{10});
  const auto snap = bundle.metrics.snapshot();
  EXPECT_EQ(snap.counter("nesting.read.remote"), 1u);
  EXPECT_EQ(snap.counter("nesting.read.cached"), 1u);
}

TEST_F(NestingTest, WriteRequiresPriorRead) {
  auto stub = cluster_.make_stub(0);
  Transaction txn(stub, next_tx_id());
  EXPECT_THROW(txn.write(kA, Record{1}), std::logic_error);
  txn.read(kA);
  EXPECT_NO_THROW(txn.write(kA, Record{1}));
}

TEST_F(NestingTest, ReadYourOwnWrites) {
  auto stub = cluster_.make_stub(0);
  Transaction txn(stub, next_tx_id());
  txn.read(kA);
  txn.write(kA, Record{99});
  EXPECT_EQ(txn.read(kA), Record{99});
}

TEST_F(NestingTest, NestedFrameSeesParentState) {
  auto stub = cluster_.make_stub(0);
  Transaction txn(stub, next_tx_id());
  obs::Observability bundle;
  txn.set_obs(&bundle);
  txn.read(kA);
  txn.write(kA, Record{42});
  txn.begin_nested();
  EXPECT_EQ(txn.read(kA), Record{42});  // parent write visible, no RPC
  EXPECT_EQ(bundle.metrics.snapshot().counter("nesting.read.remote"), 1u);
  txn.commit_nested();
}

TEST_F(NestingTest, AbortNestedDiscardsOnlyTopFrame) {
  auto stub = cluster_.make_stub(0);
  Transaction txn(stub, next_tx_id());
  txn.read(kA);
  txn.write(kA, Record{42});
  txn.begin_nested();
  txn.read(kB);
  txn.write(kB, Record{77});
  txn.abort_nested();
  EXPECT_EQ(txn.depth(), 1u);
  EXPECT_FALSE(txn.has_read(kB));
  EXPECT_FALSE(txn.has_written(kB));
  EXPECT_EQ(txn.read(kA), Record{42});  // parent state intact
}

TEST_F(NestingTest, CommitNestedMergesIntoParent) {
  auto stub = cluster_.make_stub(0);
  Transaction txn(stub, next_tx_id());
  txn.begin_nested();
  txn.read(kB);
  txn.write(kB, Record{77});
  txn.commit_nested();
  EXPECT_TRUE(txn.has_read(kB));
  EXPECT_TRUE(txn.has_written(kB));
  EXPECT_EQ(txn.read(kB), Record{77});
  txn.commit();
  // Committed state is visible to a fresh transaction.
  Transaction check(stub, next_tx_id());
  EXPECT_EQ(check.read(kB), Record{77});
}

TEST_F(NestingTest, OnlyOneNestingLevel) {
  auto stub = cluster_.make_stub(0);
  Transaction txn(stub, next_tx_id());
  txn.begin_nested();
  EXPECT_THROW(txn.begin_nested(), std::logic_error);
  txn.abort_nested();
  EXPECT_THROW(txn.abort_nested(), std::logic_error);
  EXPECT_THROW(txn.commit_nested(), std::logic_error);
}

TEST_F(NestingTest, CommitWithOpenSubTransactionIsAnError) {
  auto stub = cluster_.make_stub(0);
  Transaction txn(stub, next_tx_id());
  txn.begin_nested();
  EXPECT_THROW(txn.commit(), std::logic_error);
}

TEST_F(NestingTest, ClassifyPartialWhenInvalidObjectIsFrameLocal) {
  auto stub = cluster_.make_stub(0);
  Transaction txn(stub, next_tx_id());
  txn.read(kA);  // parent history
  txn.begin_nested();
  txn.read(kB);  // first read inside the sub-transaction
  const dtm::TxAbort frame_local(dtm::AbortKind::kValidation, {kB});
  EXPECT_EQ(txn.classify(frame_local), AbortScope::kPartial);
  // An object never seen before also re-executes within the sub-transaction.
  const dtm::TxAbort unseen(dtm::AbortKind::kBusy, {kC});
  EXPECT_EQ(txn.classify(unseen), AbortScope::kPartial);
}

TEST_F(NestingTest, ClassifyFullWhenInvalidObjectIsMergedHistory) {
  auto stub = cluster_.make_stub(0);
  Transaction txn(stub, next_tx_id());
  txn.read(kA);
  txn.begin_nested();
  txn.read(kB);
  const dtm::TxAbort parent_object(dtm::AbortKind::kValidation, {kA});
  EXPECT_EQ(txn.classify(parent_object), AbortScope::kFull);
  const dtm::TxAbort mixed(dtm::AbortKind::kValidation, {kA, kB});
  EXPECT_EQ(txn.classify(mixed), AbortScope::kFull);
}

TEST_F(NestingTest, ClassifyFullWithoutActiveSubTransaction) {
  auto stub = cluster_.make_stub(0);
  Transaction txn(stub, next_tx_id());
  txn.read(kB);
  const dtm::TxAbort abort(dtm::AbortKind::kValidation, {kB});
  EXPECT_EQ(txn.classify(abort), AbortScope::kFull);
}

TEST_F(NestingTest, PartialRollbackPathEndToEnd) {
  // T1 reads A (parent), opens a sub-txn, reads B; T2 invalidates B; T1's
  // next read aborts; T1 retries only the sub-transaction and commits.
  auto stub1 = cluster_.make_stub(0);
  auto stub2 = cluster_.make_stub(1);

  Transaction t1(stub1, next_tx_id());
  t1.read(kA);
  t1.begin_nested();
  t1.read(kB);

  {
    Transaction t2(stub2, next_tx_id());
    const Record b = t2.read(kB);
    t2.write(kB, Record{b[0] + 1});
    t2.commit();
  }

  try {
    t1.read(kC);  // incremental validation now sees stale B
    FAIL() << "expected TxAbort";
  } catch (const dtm::TxAbort& abort) {
    EXPECT_EQ(t1.classify(abort), AbortScope::kPartial);
    t1.abort_nested();
  }

  t1.begin_nested();
  EXPECT_EQ(t1.read(kB), Record{21});  // fresh copy
  t1.read(kC);
  t1.commit_nested();
  EXPECT_NO_THROW(t1.commit());
}

TEST_F(NestingTest, ReadOnlyCommitValidates) {
  auto stub1 = cluster_.make_stub(0);
  auto stub2 = cluster_.make_stub(1);
  Transaction t1(stub1, next_tx_id());
  t1.read(kA);
  {
    Transaction t2(stub2, next_tx_id());
    const Record a = t2.read(kA);
    t2.write(kA, Record{a[0] + 1});
    t2.commit();
  }
  EXPECT_THROW(t1.commit(), dtm::TxAbort);
}

TEST_F(NestingTest, InsertThenReadBack) {
  auto stub = cluster_.make_stub(0);
  const ObjectKey fresh{9, 1234};
  Transaction txn(stub, next_tx_id());
  txn.insert(fresh, Record{5, 6});
  EXPECT_EQ(txn.read(fresh), (Record{5, 6}));
  txn.commit();
  Transaction check(stub, next_tx_id());
  EXPECT_EQ(check.read(fresh), (Record{5, 6}));
}

TEST_F(NestingTest, ResetClearsEverything) {
  auto stub = cluster_.make_stub(0);
  Transaction txn(stub, next_tx_id());
  txn.read(kA);
  txn.write(kA, Record{1});
  txn.reset(next_tx_id());
  EXPECT_EQ(txn.read_set_size(), 0u);
  EXPECT_EQ(txn.write_set_size(), 0u);
  EXPECT_EQ(txn.depth(), 1u);
}

TEST_F(NestingTest, ConcurrentTransfersPreserveTotalBalance) {
  // 4 threads x 50 committed transfers over 4 objects; the sum is invariant
  // iff the protocol is (1-copy) serializable for this workload.
  const std::vector<ObjectKey> keys{{1, 1}, {1, 2}, {2, 1}, {5, 9}};
  workloads::seed_all(cluster_.servers(), {5, 9}, Record{40});

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      auto stub = cluster_.make_stub(t);
      Rng rng(100 + t);
      int committed = 0;
      while (committed < 50) {
        Transaction txn(stub, next_tx_id());
        try {
          const auto i = rng.uniform(0, keys.size() - 1);
          auto j = rng.uniform(0, keys.size() - 1);
          if (j == i) j = (j + 1) % keys.size();
          const Record a = txn.read(keys[i]);
          const Record b = txn.read(keys[j]);
          txn.write(keys[i], Record{a[0] - 1});
          txn.write(keys[j], Record{b[0] + 1});
          txn.commit();
          ++committed;
        } catch (const dtm::TxAbort&) {
          // retry with a fresh transaction
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  store::Field total = 0;
  for (const auto& key : keys)
    total += workloads::latest_value(cluster_.servers(), key).value[0];
  EXPECT_EQ(total, 10 + 20 + 30 + 40);
}

TEST(TxIds, MonotoneAndUnique) {
  const auto a = next_tx_id();
  const auto b = next_tx_id();
  EXPECT_LT(a, b);
}

}  // namespace
}  // namespace acn::nesting
