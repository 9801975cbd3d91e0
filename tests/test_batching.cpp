// Batched quorum reads and the speculative prefetch pipeline: codec
// round-trips for the BatchedRead message pair, read_many equivalence with
// N sequential reads (values, versions and abort behaviour), the executor's
// batched/prefetch block execution behind the unified run() API, and the
// shared retry ladder under packet loss.
#include <gtest/gtest.h>

#include <memory>

#include "src/acn/executor.hpp"
#include "src/dtm/codec.hpp"
#include "src/harness/cluster.hpp"
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

ClusterConfig fast_config(std::size_t n = 10) {
  ClusterConfig config;
  config.n_servers = n;
  config.base_latency = std::chrono::nanoseconds{0};
  config.stub.retry.base = std::chrono::nanoseconds{100};
  // All batched traffic in this suite doubles as codec coverage.
  config.stub.verify_codec = true;
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

TEST(BatchedCodec, RequestRoundTrips) {
  dtm::BatchedReadRequest req;
  req.tx = 42;
  req.keys = {kA, kB, kC};
  req.validate = {{kA, 3}, {kB, 9}};
  req.want_contention = {1, 2, 7};
  dtm::Request wire;
  wire.payload = req;
  EXPECT_EQ(dtm::roundtrip(wire), wire);
}

TEST(BatchedCodec, ResponseRoundTrips) {
  dtm::BatchedReadResponse res;
  res.codes = {dtm::ReadCode::kOk, dtm::ReadCode::kMissing,
               dtm::ReadCode::kBusy, dtm::ReadCode::kInvalid};
  res.records.resize(4);
  res.records[0] = {Record{10, 20}, 5};
  res.invalid = {kB};
  res.contention = {7, 0, 3};
  dtm::Response wire;
  wire.payload = res;
  EXPECT_EQ(dtm::roundtrip(wire), wire);
}

TEST(BatchedCodec, ApproxSizesScaleWithPayload) {
  dtm::BatchedReadRequest small{1, {kA}, {}, {}};
  dtm::BatchedReadRequest big{1, {kA, kB, kC}, {{kA, 1}, {kB, 2}}, {1, 2}};
  EXPECT_GT(big.approx_size(), small.approx_size());

  dtm::BatchedReadResponse empty;
  dtm::BatchedReadResponse loaded;
  loaded.codes = {dtm::ReadCode::kOk, dtm::ReadCode::kOk};
  loaded.records = {{Record{1, 2, 3}, 4}, {Record{5}, 6}};
  EXPECT_GT(loaded.approx_size(), empty.approx_size());
}

TEST(ReadMany, MatchesSequentialReads) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{100});
  workloads::seed_all(cluster.servers(), kB, Record{200});
  workloads::seed_all(cluster.servers(), kC, Record{300});
  auto stub = cluster.make_stub(0);
  // Advance kB so versions differ across the batch.
  {
    const auto b = stub.read(1, kB, {});
    stub.commit(
        stub.prepare(1, {{kB, b.record.version}}, {kB}, {b.record.version}),
        {Record{222}});
  }

  const auto batched = stub.read_many(2, {kA, kB, kC}, {});
  ASSERT_EQ(batched.records.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const ObjectKey key = (i == 0) ? kA : (i == 1) ? kB : kC;
    const auto single = stub.read(2, key, {});
    EXPECT_EQ(batched.records[i].value, single.record.value);
    EXPECT_EQ(batched.records[i].version, single.record.version);
  }
}

TEST(ReadMany, SharesTheValidationAbortWithRead) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{1});
  workloads::seed_all(cluster.servers(), kB, Record{2});
  auto t1 = cluster.make_stub(0);
  auto t2 = cluster.make_stub(1);

  const auto a = t1.read(1, kA, {});
  const auto a2 = t2.read(2, kA, {});
  t2.commit(
      t2.prepare(2, {{kA, a2.record.version}}, {kA}, {a2.record.version}),
      {Record{50}});

  // The stale {kA} check poisons the whole batch, exactly like read().
  try {
    t1.read_many(1, {kB, kA}, {{kA, a.record.version}});
    FAIL() << "expected TxAbort";
  } catch (const dtm::TxAbort& abort) {
    EXPECT_EQ(abort.kind(), dtm::AbortKind::kValidation);
    ASSERT_EQ(abort.invalid().size(), 1u);
    EXPECT_EQ(abort.invalid()[0], kA);
  }
}

TEST(ReadMany, MissingKeyThrowsLikeRead) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{1});
  auto stub = cluster.make_stub(0);
  EXPECT_THROW(stub.read_many(1, {kA, ObjectKey{9, 9}}, {}),
               dtm::ObjectMissing);
}

TEST(ReadMany, PiggybacksContentionLevels) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{1});
  workloads::seed_all(cluster.servers(), kB, Record{2});
  auto stub = cluster.make_stub(0);
  const auto a = stub.read(1, kA, {});
  stub.commit(
      stub.prepare(1, {{kA, a.record.version}}, {kA}, {a.record.version}),
      {Record{5}});
  cluster.roll_contention_windows();
  // The commit hit a write quorum; every read quorum intersects it, so the
  // max-merged piggybacked level for kA's class must see that write.
  const auto out = stub.read_many(2, {kA, kB}, {}, {kA.cls});
  ASSERT_EQ(out.contention.size(), 1u);
  EXPECT_GE(out.contention[0], 1u);
}

TEST(ReadMany, RetryLadderSurvivesPacketLoss) {
  auto config = fast_config();
  config.stub.max_quorum_retries = 32;
  Cluster cluster(config);
  workloads::seed_all(cluster.servers(), kA, Record{100});
  workloads::seed_all(cluster.servers(), kB, Record{200});
  workloads::seed_all(cluster.servers(), kC, Record{300});
  cluster.network().set_drop_probability(0.3);
  auto stub = cluster.make_stub(0);
  for (int i = 0; i < 20; ++i) {
    const auto out = stub.read_many(1 + i, {kA, kB, kC}, {});
    ASSERT_EQ(out.records.size(), 3u);
    EXPECT_EQ(out.records[0].value, Record{100});
    EXPECT_EQ(out.records[1].value, Record{200});
    EXPECT_EQ(out.records[2].value, Record{300});
  }
}

TEST(BatchedExecution, MatchesUnbatchedFinalState) {
  // Same params: a batched (and prefetching) block run must commit the same
  // final state as the plain block run, in fewer quorum rounds.
  workloads::Bank bank({.n_branches = 4, .n_accounts = 8});
  const auto& profile = bank.profiles()[0];
  const std::vector<Record> params{Record{1}, Record{2}, Record{0}, Record{3},
                                   Record{7}};
  const std::vector<ObjectKey> touched{
      workloads::Bank::account_key(1), workloads::Bank::account_key(2),
      workloads::Bank::branch_key(0), workloads::Bank::branch_key(3)};

  std::vector<store::Record> expected;
  ExecStats plain_stats;
  {
    Cluster cluster(fast_config());
    bank.seed(cluster.servers());
    auto stub = cluster.make_stub(0);
    Executor executor(stub, fast_executor(), 1);
    executor.run(Protocol::kManualCN,
                 with_blocks(*profile.program, profile.static_model, profile.manual_sequence),
                 params, plain_stats);
    for (const auto& key : touched)
      expected.push_back(workloads::latest_value(cluster.servers(), key).value);
  }

  obs::Observability obs;
  Cluster cluster(fast_config());
  cluster.set_obs(&obs);
  bank.seed(cluster.servers());
  auto stub = cluster.make_stub(0);
  auto exec_config = fast_executor();
  exec_config.obs = &obs;
  Executor executor(stub, exec_config, 1);
  ExecStats stats;
  RunOptions options;
  options.program = profile.program.get();
  options.model = &profile.static_model;
  options.sequence = &profile.manual_sequence;
  options.batch_reads = true;
  options.prefetch = true;
  executor.run(Protocol::kManualCN, options, params, stats);

  EXPECT_EQ(stats.commits, plain_stats.commits);
  EXPECT_EQ(stats.full_aborts, 0u);
  std::size_t i = 0;
  for (const auto& key : touched)
    EXPECT_EQ(workloads::latest_value(cluster.servers(), key).value,
              expected[i++]);
  // The batched path must actually have saved quorum rounds.
  const auto snapshot = obs.metrics.snapshot();
  EXPECT_GT(snapshot.counter("rpc.read.saved"), 0u);
  bank.check_invariants(cluster.servers());
}

/// Two-block program where the second block's read of B is prefetchable
/// during the first block, and a saboteur commits a new B in between:
///   block 0: read A, sabotage (fires AFTER the batched fetch speculated B)
///   block 1: read B, derive a selector from B, read C (keyed on the
///            selector, so C is never prefetchable)
/// The stale adopted B is caught by read C's incremental validation; because
/// the adopted read lives in block 1's own frame, the abort stays partial.
/// With `sabotage_after_read_b` the saboteur instead runs inside block 1
/// right after read B — the classic mid-block conflict, used to observe
/// per-run config overrides (no batching involved).
struct PrefetchRig {
  Cluster cluster{fast_config()};
  std::unique_ptr<dtm::QuorumStub> saboteur_stub;
  std::shared_ptr<int> fires = std::make_shared<int>(0);
  TxProgram program;
  DependencyModel model;
  BlockSequence sequence;

  explicit PrefetchRig(int n_fires, bool sabotage_after_read_b = false) {
    workloads::seed_all(cluster.servers(), kA, Record{100});
    workloads::seed_all(cluster.servers(), kB, Record{200});
    workloads::seed_all(cluster.servers(), kC, Record{300});
    saboteur_stub = std::make_unique<dtm::QuorumStub>(cluster.make_stub(9));
    *fires = n_fires;

    ProgramBuilder b("prefetched", 0);
    const VarId a = b.remote_read(
        1, {}, [](const TxEnv&) { return kA; }, "read A");
    auto* stub = saboteur_stub.get();
    auto counter = fires;
    const auto sabotage = [stub, counter](TxEnv&) {
      if (*counter <= 0) return;
      --*counter;
      nesting::Transaction txn(*stub, nesting::next_tx_id());
      const Record v = txn.read(kB);
      txn.write(kB, Record{v[0] + 1});
      txn.commit();
    };
    if (!sabotage_after_read_b) b.local({a}, {}, sabotage, "sabotage B");
    const VarId bb = b.remote_read(
        2, {}, [](const TxEnv&) { return kB; }, "read B");
    if (sabotage_after_read_b) b.local({bb}, {}, sabotage, "sabotage B");
    const VarId sel = b.fresh_var();
    b.local({bb}, {sel},
            [bb, sel](TxEnv& e) { e.seti(sel, e.geti(bb) * 0); },
            "derive C selector");
    b.remote_read(3, {sel}, [](const TxEnv&) { return kC; }, "read C");
    program = b.build();
    model = build_dependency_model(program, AttachPolicy::kLatestProducer);
    if (model.units.size() != 3u)
      throw std::logic_error("PrefetchRig: unexpected unit count");
    sequence = {Block{{0}}, Block{{1, 2}}};
    if (!sequence_valid(sequence, model))
      throw std::logic_error("PrefetchRig: invalid sequence");
  }

  RunOptions options(bool batch) const {
    RunOptions opts;
    opts.program = &program;
    opts.model = &model;
    opts.sequence = &sequence;
    opts.batch_reads = batch;
    opts.prefetch = batch;
    return opts;
  }
};

TEST(Prefetch, StaleSpeculationCostsOnlyAPartialRetry) {
  PrefetchRig rig(/*n_fires=*/1);
  obs::Observability obs;
  rig.cluster.set_obs(&obs);
  auto stub = rig.cluster.make_stub(0);
  auto config = fast_executor();
  config.obs = &obs;
  Executor executor(stub, config, 1);
  ExecStats stats;
  executor.run(Protocol::kManualCN, rig.options(/*batch=*/true), {}, stats);

  // The stale prefetched B costs exactly one partial retry of block 1 —
  // never a full restart: speculation lands in the consuming block's frame.
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.full_aborts, 0u);
  EXPECT_EQ(stats.partial_aborts, 1u);
  const auto snapshot = obs.metrics.snapshot();
  EXPECT_GE(snapshot.counter("exec.prefetch.hit"), 1u);
  // The committed re-read of B observed the sabotaged version.
  EXPECT_EQ(workloads::latest_value(rig.cluster.servers(), kB).value,
            Record{201});
}

TEST(Prefetch, CleanRunAdoptsSpeculationWithoutWaste) {
  PrefetchRig rig(/*n_fires=*/0);
  obs::Observability obs;
  rig.cluster.set_obs(&obs);
  auto stub = rig.cluster.make_stub(0);
  auto config = fast_executor();
  config.obs = &obs;
  Executor executor(stub, config, 1);
  ExecStats stats;
  executor.run(Protocol::kManualCN, rig.options(/*batch=*/true), {}, stats);
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.partial_aborts, 0u);
  EXPECT_EQ(stats.full_aborts, 0u);
  const auto snapshot = obs.metrics.snapshot();
  EXPECT_EQ(snapshot.counter("exec.prefetch.hit"), 1u);  // B adopted
  EXPECT_EQ(snapshot.counter("exec.prefetch.waste"), 0u);
}

TEST(Prefetch, AbortBeforeAdoptionCountsWaste) {
  // Three blocks: block 1 speculatively fetches block 2's independent read
  // C, then aborts at a mid-block dependent read before block 2 ever
  // starts — the pending speculation must be discarded and counted.
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{100});
  workloads::seed_all(cluster.servers(), kB, Record{200});
  workloads::seed_all(cluster.servers(), kC, Record{300});
  const ObjectKey kD{4, 0};
  workloads::seed_all(cluster.servers(), kD, Record{400});
  auto saboteur_stub =
      std::make_unique<dtm::QuorumStub>(cluster.make_stub(9));
  auto fires = std::make_shared<int>(1);

  ProgramBuilder b("wasteful", 0);
  b.remote_read(1, {}, [](const TxEnv&) { return kA; }, "read A");
  const VarId bb = b.remote_read(
      2, {}, [](const TxEnv&) { return kB; }, "read B");
  auto* stub_ptr = saboteur_stub.get();
  b.local({bb}, {},
          [stub_ptr, fires](TxEnv&) {
            if (*fires <= 0) return;
            --*fires;
            nesting::Transaction txn(*stub_ptr, nesting::next_tx_id());
            const Record v = txn.read(kA);
            txn.write(kA, Record{v[0] + 1});
            txn.commit();
          },
          "sabotage A");
  const VarId sel = b.fresh_var();
  b.local({bb}, {sel},
          [bb, sel](TxEnv& e) { e.seti(sel, e.geti(bb) * 0); },
          "derive D selector");
  b.remote_read(4, {sel}, [kD](const TxEnv&) { return kD; }, "read D");
  b.remote_read(3, {}, [](const TxEnv&) { return kC; }, "read C");
  const auto program = b.build();
  const auto model =
      build_dependency_model(program, AttachPolicy::kLatestProducer);
  ASSERT_EQ(model.units.size(), 4u);
  const BlockSequence sequence{Block{{0}}, Block{{1, 2}}, Block{{3}}};
  ASSERT_TRUE(sequence_valid(sequence, model));

  obs::Observability obs;
  cluster.set_obs(&obs);
  auto stub = cluster.make_stub(0);
  auto config = fast_executor();
  config.obs = &obs;
  Executor executor(stub, config, 1);
  ExecStats stats;
  RunOptions options;
  options.program = &program;
  options.model = &model;
  options.sequence = &sequence;
  options.batch_reads = true;
  options.prefetch = true;
  executor.run(Protocol::kManualCN, options, {}, stats);

  // Read D's validation sees the sabotaged A — merged history, so the
  // abort is full — while C's speculation is still un-adopted.
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.full_aborts, 1u);
  const auto snapshot = obs.metrics.snapshot();
  EXPECT_GE(snapshot.counter("exec.prefetch.waste"), 1u);
  // The clean restart still adopts its own speculation of C.
  EXPECT_GE(snapshot.counter("exec.prefetch.hit"), 1u);
}

TEST(RunApi, MissingInputsAreRejected) {
  Cluster cluster(fast_config());
  auto stub = cluster.make_stub(0);
  Executor executor(stub, fast_executor(), 1);
  ExecStats stats;
  EXPECT_THROW(executor.run(Protocol::kFlat, {}, {}, stats),
               std::invalid_argument);
  EXPECT_THROW(executor.run(Protocol::kManualCN, {}, {}, stats),
               std::invalid_argument);
  EXPECT_THROW(executor.run(Protocol::kAcn, {}, {}, stats),
               std::invalid_argument);
}

TEST(RunApi, NoPartialRetriesTurnsAMidBlockConflictIntoAFullRestart) {
  // A mid-block conflict normally costs one *partial* retry; with
  // max_partial_retries = 0 it must cost a full restart instead.
  PrefetchRig rig(/*n_fires=*/1, /*sabotage_after_read_b=*/true);
  auto stub = rig.cluster.make_stub(0);
  ExecutorConfig strict = fast_executor();
  strict.max_partial_retries = 0;
  Executor strict_executor(stub, strict, 1);

  ExecStats stats;
  strict_executor.run(Protocol::kManualCN, rig.options(/*batch=*/false), {},
                      stats);
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.partial_aborts, 0u);
  EXPECT_EQ(stats.full_aborts, 1u);

  // Re-arm the saboteur; the default config absorbs it as a partial retry.
  *rig.fires = 1;
  Executor executor(stub, fast_executor(), 1);
  executor.run(Protocol::kManualCN, rig.options(/*batch=*/false), {}, stats);
  EXPECT_EQ(stats.commits, 2u);
  EXPECT_EQ(stats.partial_aborts, 1u);
  EXPECT_EQ(stats.full_aborts, 1u);
}

}  // namespace
}  // namespace acn
