// Contention-aware scheduler tests (src/sched): footprint prediction, the
// AIMD admission window, hot-key detection (abort blame + contention-class
// refinement) and eviction, anti-starvation aging, and an end-to-end
// QR-ACN run with the scheduler engaged.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "src/acn/footprint.hpp"
#include "src/harness/driver.hpp"
#include "src/obs/obs.hpp"
#include "src/sched/scheduler.hpp"
#include "src/workloads/bank.hpp"

namespace acn::sched {
namespace {

using ir::ObjectKey;
using ir::ProgramBuilder;
using ir::Record;
using ir::TxEnv;
using ir::VarId;

const ObjectKey kHot{1, 7};
const ObjectKey kHot2{1, 8};
const ObjectKey kCold{2, 9};

KeyFootprint writes(std::vector<ObjectKey> keys) {
  std::sort(keys.begin(), keys.end());
  KeyFootprint footprint;
  for (const auto& key : keys) footprint.push_back({key, true});
  return footprint;
}

SchedulerConfig base_config() {
  SchedulerConfig config;
  config.policy = SchedulerPolicy::kBoth;
  config.class_hot_level = 0;  // abort-blame hotness only (deterministic)
  return config;
}

/// Make `key` hot through the public interface: three blamed aborts reach
/// the default hot_score of 3.0.
void heat(TxScheduler& scheduler, std::size_t session, const ObjectKey& key) {
  auto& gate = scheduler.session(session);
  gate.admit({});
  for (int i = 0; i < 3; ++i)
    gate.on_full_abort(TxOutcome::kValidation, {key});
  gate.finish(TxOutcome::kValidation);
}

TEST(SchedPolicy, ParseAndNameRoundTrip) {
  for (const auto policy : {SchedulerPolicy::kNone, SchedulerPolicy::kBoth}) {
    const auto parsed = parse_policy(policy_name(policy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(parse_policy("queue").has_value());
  EXPECT_FALSE(parse_policy("admit").has_value());
  EXPECT_FALSE(parse_policy("bogus").has_value());
  EXPECT_FALSE(parse_policy("").has_value());
}

TEST(SchedFootprint, PredictsParamOnlyKeysWithWriteIntent) {
  ProgramBuilder b("footprint", /*n_params=*/1);
  // Param-only read: predictable.
  const VarId a = b.remote_read(
      1, {b.param(0)}, [](const TxEnv&) { return ObjectKey{1, 5}; }, "read a");
  // Read-modify-write: the local op below writes this op's out var.
  const VarId c = b.remote_read(
      2, {}, [](const TxEnv&) { return ObjectKey{2, 9}; }, "read c");
  // Key depends on a produced var: invisible to the prediction.
  b.remote_read(
      3, {a}, [](const TxEnv&) { return ObjectKey{3, 1}; }, "chase");
  // Same key read twice, once for_write: deduplicates, write sticky.
  b.remote_read(
      1, {}, [](const TxEnv&) { return ObjectKey{1, 6}; }, "read e");
  b.remote_read(
      1, {}, [](const TxEnv&) { return ObjectKey{1, 6}; }, "write e",
      /*for_write=*/true);
  b.local({c}, {c}, [](TxEnv&) {}, "rmw c");
  const auto program = b.build();

  const KeyFootprint footprint =
      predicted_footprint(program, {Record{42}});
  ASSERT_EQ(footprint.size(), 3u);
  EXPECT_EQ(footprint[0].key, (ObjectKey{1, 5}));
  EXPECT_FALSE(footprint[0].for_write);
  EXPECT_EQ(footprint[1].key, (ObjectKey{1, 6}));
  EXPECT_TRUE(footprint[1].for_write);  // sticky across the dedup
  EXPECT_EQ(footprint[2].key, (ObjectKey{2, 9}));
  EXPECT_TRUE(footprint[2].for_write);  // derived from the local write
}

TEST(SchedAimd, WindowGrowsOnCommitShrinksOnAbort) {
  TxScheduler scheduler(base_config(), 1);
  auto& gate = scheduler.session(0);
  const auto& config = scheduler.config();
  EXPECT_DOUBLE_EQ(gate.window(), config.initial_window);

  gate.admit({});
  gate.on_full_abort(TxOutcome::kValidation, {});
  EXPECT_NEAR(gate.window(),
              config.initial_window * config.multiplicative_decrease, 1e-9);
  gate.finish(TxOutcome::kCommitted);
  EXPECT_NEAR(gate.window(),
              config.initial_window * config.multiplicative_decrease +
                  config.additive_increase,
              1e-9);
}

TEST(SchedAimd, WindowClampsToConfiguredRange) {
  TxScheduler scheduler(base_config(), 1);
  auto& gate = scheduler.session(0);
  const auto& config = scheduler.config();

  gate.admit({});
  for (int i = 0; i < 200; ++i) gate.on_full_abort(TxOutcome::kBusy, {});
  EXPECT_DOUBLE_EQ(gate.window(), config.min_window);
  gate.finish(TxOutcome::kValidation);

  for (int i = 0; i < 200; ++i) {
    gate.admit({});
    gate.finish(TxOutcome::kCommitted);
  }
  EXPECT_DOUBLE_EQ(gate.window(), config.max_window);
}

TEST(SchedAimd, LeaseExpiredShrinksTwiceAsHard) {
  TxScheduler scheduler(base_config(), 1);
  auto& gate = scheduler.session(0);
  const auto& config = scheduler.config();
  gate.admit({});
  gate.on_full_abort(TxOutcome::kLeaseExpired, {});
  EXPECT_NEAR(gate.window(),
              config.initial_window * config.multiplicative_decrease *
                  config.multiplicative_decrease,
              1e-9);
  gate.finish(TxOutcome::kValidation);
}

TEST(SchedHotKeys, BlameAccumulatesAndDecays) {
  TxScheduler scheduler(base_config(), 2);
  EXPECT_FALSE(scheduler.is_hot(kHot));
  heat(scheduler, 0, kHot);
  EXPECT_TRUE(scheduler.is_hot(kHot));
  EXPECT_FALSE(scheduler.is_hot(kCold));
  EXPECT_TRUE(scheduler.any_hot(writes({kCold, kHot})));
  EXPECT_FALSE(scheduler.any_hot(writes({kCold})));

  scheduler.tick();  // 3.0 -> 1.5: below hot_score
  EXPECT_FALSE(scheduler.is_hot(kHot));
  for (int i = 0; i < 4; ++i) scheduler.tick();  // decays to eviction

  heat(scheduler, 1, kHot);  // re-blame after eviction works
  EXPECT_TRUE(scheduler.is_hot(kHot));
}

TEST(SchedHotKeys, ClassSnapshotRefinementToleratesStaleData) {
  auto config = base_config();
  config.class_hot_level = 48;
  TxScheduler scheduler(config, 1);

  scheduler.note_class_levels({1, 2}, {48, 47});
  EXPECT_TRUE(scheduler.is_hot(kHot));    // class 1 at the threshold
  EXPECT_FALSE(scheduler.is_hot(kCold));  // class 2 below it

  // A stale/misaligned snapshot (more classes than levels) degrades the
  // refinement to the common prefix; it must never crash.
  scheduler.note_class_levels({1, 2, 3}, {50});
  EXPECT_TRUE(scheduler.is_hot(kHot));
  EXPECT_FALSE(scheduler.is_hot(kCold));

  scheduler.note_class_levels({}, {});  // next snapshot clears it
  EXPECT_FALSE(scheduler.is_hot(kHot));
}

/// Blame `key` exactly `n` times through the public interface (heat() is
/// the n == 3 special case that reaches the default hot_score).
void blame_n(TxScheduler& scheduler, std::size_t session, const ObjectKey& key,
             int n) {
  auto& gate = scheduler.session(session);
  gate.admit({});
  for (int i = 0; i < n; ++i) gate.on_full_abort(TxOutcome::kValidation, {key});
  gate.finish(TxOutcome::kValidation);
}

TEST(SchedHotKeys, HotKeysListsExactlyTheHotTrackedKeys) {
  TxScheduler scheduler(base_config(), 1);
  EXPECT_TRUE(scheduler.hot_keys().empty());

  // Score exactly at hot_score (3 blames x 1.0 vs the default 3.0) IS hot
  // — the threshold is inclusive; one blame short of it is not.
  blame_n(scheduler, 0, kHot, 3);
  blame_n(scheduler, 0, kCold, 2);
  EXPECT_EQ(scheduler.hot_keys(), std::vector<ObjectKey>{kHot});

  // A second hot key joins; the listing is sorted ascending.
  blame_n(scheduler, 0, kHot2, 3);
  EXPECT_EQ(scheduler.hot_keys(), (std::vector<ObjectKey>{kHot, kHot2}));
}

TEST(SchedHotKeys, HotKeysTracksDecayAcrossTheThresholdBoundary) {
  TxScheduler scheduler(base_config(), 1);

  // 4.0 decays to 2.0: below the 3.0 threshold after one tick.
  blame_n(scheduler, 0, kHot, 4);
  // 6.0 decays to exactly 3.0: still hot after one tick (inclusive bound).
  blame_n(scheduler, 0, kHot2, 6);
  EXPECT_EQ(scheduler.hot_keys(), (std::vector<ObjectKey>{kHot, kHot2}));

  scheduler.tick();
  EXPECT_EQ(scheduler.hot_keys(), std::vector<ObjectKey>{kHot2});

  // The cooled key is still tracked (2.0 >= the 0.25 eviction floor), so
  // fresh blame stacks on the decayed score: 2.0 + 1.0 = 3.0 -> hot again.
  blame_n(scheduler, 0, kHot, 1);
  EXPECT_EQ(scheduler.hot_keys(), (std::vector<ObjectKey>{kHot, kHot2}));
}

TEST(SchedHotKeys, HotKeysListsOnlyTrackedKeysOfHotClasses) {
  auto config = base_config();
  config.class_hot_level = 48;
  TxScheduler scheduler(config, 1);

  // kHot is tracked (blamed once, far below hot_score); kCold's class was
  // never blamed at all.
  blame_n(scheduler, 0, kHot, 1);
  EXPECT_TRUE(scheduler.hot_keys().empty());

  // The snapshot marks both classes hot: is_hot answers true for any key
  // of either class, but hot_keys lists only keys the scheduler *tracks* —
  // the documented contract (untracked keys of a hot class are invisible).
  scheduler.note_class_levels({kHot.cls, kCold.cls}, {50, 50});
  EXPECT_TRUE(scheduler.is_hot(kHot));
  EXPECT_TRUE(scheduler.is_hot(kCold));
  EXPECT_EQ(scheduler.hot_keys(), std::vector<ObjectKey>{kHot});

  // Stale snapshot (more classes than levels): the common prefix governs,
  // so class 1 stays hot and the listing is unchanged.
  scheduler.note_class_levels({kHot.cls, kCold.cls}, {50});
  EXPECT_EQ(scheduler.hot_keys(), std::vector<ObjectKey>{kHot});
  EXPECT_FALSE(scheduler.is_hot(kCold));
}

TEST(SchedHotKeys, CooledKeysAreEvictedAndTheTableRefills) {
  auto config = base_config();
  config.max_tracked_keys = 2;
  TxScheduler scheduler(config, 1);
  heat(scheduler, 0, kHot);
  heat(scheduler, 0, kHot2);

  // The table is full: blame for a third key is dropped.
  blame_n(scheduler, 0, kCold, 3);
  EXPECT_FALSE(scheduler.is_hot(kCold));

  // 3.0 decays to 0.375 in three ticks: cooled, but still tracked.
  for (int i = 0; i < 3; ++i) scheduler.tick();
  blame_n(scheduler, 0, kCold, 3);
  EXPECT_FALSE(scheduler.is_hot(kCold));

  // The fourth tick takes both scores to 0.1875, below the 0.25 eviction
  // floor.
  scheduler.tick();

  // Both slots are free again, so the third key's blame now sticks.
  blame_n(scheduler, 0, kCold, 3);
  EXPECT_TRUE(scheduler.is_hot(kCold));
}

TEST(SchedAimd, AgingAdmitsGatedWaiter) {
  obs::Observability obs;
  auto config = base_config();
  config.class_hot_level = 48;
  config.initial_window = 0.5;  // admits one, gates the second
  config.min_window = 0.5;
  config.aging_budget = std::chrono::milliseconds{10};
  TxScheduler scheduler(config, 2, /*seed=*/1, &obs);
  scheduler.note_class_levels({kHot.cls}, {48});

  auto& first = scheduler.session(0);
  first.admit(writes({kHot}));
  EXPECT_EQ(scheduler.active(), 1u);

  const auto start = std::chrono::steady_clock::now();
  auto& second = scheduler.session(1);
  second.admit(writes({kHot}));  // gated; aging must admit it anyway
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_GE(obs.metrics.snapshot().counter("sched.admit.aged"), 1u);
  EXPECT_LT(waited, std::chrono::seconds{5});
  EXPECT_EQ(scheduler.active(), 2u);

  second.finish(TxOutcome::kCommitted);
  first.finish(TxOutcome::kCommitted);
  EXPECT_EQ(scheduler.active(), 0u);
}

TEST(SchedAimd, ColdTrafficIsNeverGated) {
  auto config = base_config();
  config.initial_window = 0.5;  // would gate everything if applied
  config.min_window = 0.5;
  TxScheduler scheduler(config, 3);
  heat(scheduler, 2, kHot);

  // Cold footprints bypass admission entirely: no slot taken, no wait.
  auto& first = scheduler.session(0);
  auto& second = scheduler.session(1);
  first.admit(writes({kCold}));
  second.admit(writes({kCold}));
  EXPECT_EQ(scheduler.active(), 0u);
  first.finish(TxOutcome::kCommitted);
  second.finish(TxOutcome::kCommitted);
}

TEST(SchedEndToEnd, AcnRunCommitsUnderBothPolicy) {
  harness::ClusterConfig cluster_config;
  cluster_config.n_servers = 5;
  cluster_config.base_latency = std::chrono::nanoseconds{0};
  cluster_config.stub.retry.base = std::chrono::nanoseconds{100};
  harness::Cluster cluster(cluster_config);
  workloads::Bank bank({.n_branches = 4, .n_accounts = 16,
                        .hot_branches = 2, .hot_probability = 0.9});
  bank.seed(cluster.servers());

  harness::DriverConfig driver;
  driver.n_clients = 4;
  driver.intervals = 2;
  driver.interval = std::chrono::milliseconds{100};
  driver.seed = 3;
  driver.executor.backoff_base = std::chrono::nanoseconds{100};
  driver.scheduler.policy = SchedulerPolicy::kBoth;

  const auto result =
      harness::run(cluster, bank, harness::Protocol::kAcn, driver);
  EXPECT_GT(result.stats.commits, 0u);  // invariants checked by the driver
}

}  // namespace
}  // namespace acn::sched
