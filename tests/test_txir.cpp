// Transaction-IR tests: builder wiring, env variable slots, object binding,
// snapshots, and transactional write-through.
#include <gtest/gtest.h>

#include "src/acn/txir.hpp"
#include "src/harness/cluster.hpp"
#include "src/nesting/transaction.hpp"
#include "src/workloads/workload.hpp"

namespace acn::ir {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using store::ObjectKey;

ClusterConfig fast_config() {
  ClusterConfig config;
  config.n_servers = 4;
  config.base_latency = std::chrono::nanoseconds{0};
  return config;
}

const ObjectKey kA{1, 1};

TxProgram simple_program() {
  // read A; A[0] += p0  (one remote access, one dependent local op)
  ProgramBuilder b("simple", 1);
  const VarId p0 = b.param(0);
  const VarId a = b.remote_read(
      1, {p0}, [](const TxEnv&) { return kA; }, "read A");
  b.local({a, p0}, {a},
          [a, p0](TxEnv& e) {
            Record r = e.get(a);
            r[0] += e.geti(p0);
            e.write_object(a, std::move(r));
          },
          "bump A");
  return b.build();
}

TEST(ProgramBuilder, BuildsExpectedShape) {
  const TxProgram p = simple_program();
  EXPECT_EQ(p.name, "simple");
  EXPECT_EQ(p.n_params, 1u);
  EXPECT_EQ(p.n_vars, 2u);
  ASSERT_EQ(p.ops.size(), 2u);
  EXPECT_TRUE(p.ops[0].is_remote());
  EXPECT_FALSE(p.ops[1].is_remote());
  EXPECT_EQ(p.remote_op_count(), 1u);
  EXPECT_EQ(p.ops[0].writes(), std::vector<VarId>{1});
  EXPECT_EQ(p.ops[1].reads(), (std::vector<VarId>{1, 0}));
}

TEST(ProgramBuilder, ParamOutOfRangeThrows) {
  ProgramBuilder b("x", 2);
  EXPECT_NO_THROW(b.param(1));
  EXPECT_THROW(b.param(2), std::out_of_range);
}

TEST(ProgramBuilder, DoubleBuildThrows) {
  ProgramBuilder b("x", 0);
  b.remote_read(1, {}, [](const TxEnv&) { return kA; }, "r");
  b.build();
  EXPECT_THROW(b.build(), std::logic_error);
}

class TxEnvTest : public ::testing::Test {
 protected:
  TxEnvTest() : cluster_(fast_config()) {
    workloads::seed_all(cluster_.servers(), kA, Record{100});
  }
  Cluster cluster_;
};

TEST_F(TxEnvTest, ParamCountMustMatch) {
  const TxProgram p = simple_program();
  auto stub = cluster_.make_stub(0);
  nesting::Transaction txn(stub, nesting::next_tx_id());
  EXPECT_THROW(TxEnv(txn, p, {}), std::invalid_argument);
  EXPECT_NO_THROW(TxEnv(txn, p, {Record{1}}));
}

TEST_F(TxEnvTest, GetUnsetVarThrows) {
  const TxProgram p = simple_program();
  auto stub = cluster_.make_stub(0);
  nesting::Transaction txn(stub, nesting::next_tx_id());
  TxEnv env(txn, p, {Record{1}});
  EXPECT_EQ(env.geti(0), 1);
  EXPECT_FALSE(env.is_set(1));
  EXPECT_THROW(env.get(1), std::logic_error);
}

TEST_F(TxEnvTest, RemoteReadBindsKeyAndValue) {
  const TxProgram p = simple_program();
  auto stub = cluster_.make_stub(0);
  nesting::Transaction txn(stub, nesting::next_tx_id());
  TxEnv env(txn, p, {Record{5}});
  env.run_remote(p.ops[0].remote);
  EXPECT_TRUE(env.is_set(1));
  EXPECT_EQ(env.get(1), Record{100});
  EXPECT_EQ(env.key_of(1), kA);
}

TEST_F(TxEnvTest, WriteObjectRequiresBinding) {
  const TxProgram p = simple_program();
  auto stub = cluster_.make_stub(0);
  nesting::Transaction txn(stub, nesting::next_tx_id());
  TxEnv env(txn, p, {Record{5}});
  EXPECT_THROW(env.write_object(1, Record{1}), std::logic_error);
  EXPECT_THROW(env.key_of(1), std::logic_error);
}

TEST_F(TxEnvTest, FullExecutionWritesThrough) {
  const TxProgram p = simple_program();
  auto stub = cluster_.make_stub(0);
  nesting::Transaction txn(stub, nesting::next_tx_id());
  TxEnv env(txn, p, {Record{5}});
  env.run_remote(p.ops[0].remote);
  p.ops[1].local.fn(env);
  EXPECT_EQ(env.get(1), Record{105});
  txn.commit();
  EXPECT_EQ(workloads::latest_value(cluster_.servers(), kA).value, Record{105});
}

TEST_F(TxEnvTest, SnapshotRestoreUndoesVarMutations) {
  const TxProgram p = simple_program();
  auto stub = cluster_.make_stub(0);
  nesting::Transaction txn(stub, nesting::next_tx_id());
  TxEnv env(txn, p, {Record{5}});
  env.run_remote(p.ops[0].remote);
  const auto snapshot = env.snapshot();
  p.ops[1].local.fn(env);
  EXPECT_EQ(env.get(1), Record{105});
  env.restore(snapshot);
  EXPECT_EQ(env.get(1), Record{100});
  EXPECT_EQ(env.key_of(1), kA);  // binding preserved by the snapshot
}

TEST_F(TxEnvTest, InsertObjectGoesThroughTransaction) {
  const TxProgram p = simple_program();
  auto stub = cluster_.make_stub(0);
  nesting::Transaction txn(stub, nesting::next_tx_id());
  TxEnv env(txn, p, {Record{5}});
  env.insert_object({7, 7}, Record{1, 2});
  EXPECT_TRUE(txn.has_written({7, 7}));
}

TEST_F(TxEnvTest, SetiAndGetiRoundTrip) {
  const TxProgram p = simple_program();
  auto stub = cluster_.make_stub(0);
  nesting::Transaction txn(stub, nesting::next_tx_id());
  TxEnv env(txn, p, {Record{5}});
  env.seti(1, 42);
  EXPECT_EQ(env.geti(1), 42);
  env.set(1, Record{1, 2, 3});
  EXPECT_EQ(env.geti(1, 2), 3);
}

}  // namespace
}  // namespace acn::ir
