// Unit tests for the versioned store, its per-window write counts and the
// windowed contention tracker.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <stdexcept>
#include <thread>

#include "src/store/contention_tracker.hpp"
#include "src/store/versioned_store.hpp"

namespace acn::store {
namespace {

const ObjectKey kA{1, 10};
const ObjectKey kB{1, 11};
const ObjectKey kC{2, 10};

TEST(VersionedStore, SeedAndRead) {
  VersionedStore s;
  s.seed(kA, Record{7}, 3);
  const auto r = s.read(kA);
  ASSERT_EQ(r.status, ReadStatus::kOk);
  EXPECT_EQ(r.record.value, Record{7});
  EXPECT_EQ(r.record.version, 3u);
  EXPECT_EQ(s.version_of(kA), 3u);
}

TEST(VersionedStore, MissingObject) {
  VersionedStore s;
  EXPECT_EQ(s.read(kA).status, ReadStatus::kMissing);
  EXPECT_FALSE(s.version_of(kA).has_value());
}

TEST(VersionedStore, ProtectBlocksReadersAndOtherWriters) {
  VersionedStore s;
  s.seed(kA, Record{1});
  EXPECT_TRUE(s.try_protect(kA, 100));
  EXPECT_EQ(s.read(kA).status, ReadStatus::kProtected);
  EXPECT_FALSE(s.try_protect(kA, 200));
  EXPECT_TRUE(s.try_protect(kA, 100));  // re-entrant for the holder
  s.unprotect(kA, 100);
  EXPECT_EQ(s.read(kA).status, ReadStatus::kOk);
}

TEST(VersionedStore, UnprotectByNonHolderIsNoop) {
  VersionedStore s;
  s.seed(kA, Record{1});
  ASSERT_TRUE(s.try_protect(kA, 100));
  s.unprotect(kA, 999);
  EXPECT_EQ(s.read(kA).status, ReadStatus::kProtected);
  s.unprotect(kA, 100);
}

TEST(VersionedStore, ReadValidatingSeesOwnProtection) {
  VersionedStore s;
  s.seed(kA, Record{5}, 2);
  ASSERT_TRUE(s.try_protect(kA, 100));
  EXPECT_EQ(s.read_validating(kA, 100).status, ReadStatus::kOk);
  EXPECT_EQ(s.read_validating(kA, 100).record.version, 2u);
  EXPECT_EQ(s.read_validating(kA, 200).status, ReadStatus::kProtected);
}

TEST(VersionedStore, ApplyInstallsAndReleases) {
  VersionedStore s;
  s.seed(kA, Record{1}, 1);
  ASSERT_TRUE(s.try_protect(kA, 100));
  s.apply(kA, Record{2}, 2, 100);
  const auto r = s.read(kA);
  ASSERT_EQ(r.status, ReadStatus::kOk);
  EXPECT_EQ(r.record.value, Record{2});
  EXPECT_EQ(r.record.version, 2u);
}

TEST(VersionedStore, ApplyNeverRegressesVersions) {
  VersionedStore s;
  s.seed(kA, Record{5}, 5);
  s.apply(kA, Record{1}, 3, kNoTx);  // stale install ignored
  EXPECT_EQ(s.read(kA).record.value, Record{5});
  EXPECT_EQ(s.version_of(kA), 5u);
}

TEST(VersionedStore, ProtectOnFreshKeyCreatesGuardedPlaceholder) {
  VersionedStore s;
  EXPECT_TRUE(s.try_protect(kA, 100));
  // A placeholder is "busy", not missing, to concurrent readers.
  EXPECT_EQ(s.read(kA).status, ReadStatus::kProtected);
  // Aborting erases the placeholder entirely.
  s.unprotect(kA, 100);
  EXPECT_EQ(s.read(kA).status, ReadStatus::kMissing);
  EXPECT_EQ(s.object_count(), 0u);
}

TEST(VersionedStore, FreshInsertThroughProtectApply) {
  VersionedStore s;
  ASSERT_TRUE(s.try_protect(kA, 100));
  s.apply(kA, Record{9}, 1, 100);
  const auto r = s.read(kA);
  ASSERT_EQ(r.status, ReadStatus::kOk);
  EXPECT_EQ(r.record.value, Record{9});
}

TEST(VersionedStore, ConcurrentProtectExactlyOneWins) {
  VersionedStore s;
  s.seed(kA, Record{0});
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int t = 1; t <= 8; ++t)
    threads.emplace_back([&, t] {
      if (s.try_protect(kA, static_cast<TxId>(t))) winners.fetch_add(1);
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(winners.load(), 1);
}

TEST(VersionedStore, CountsCommittedWritesPerContentionWindow) {
  VersionedStore s;
  s.seed(kA, Record{1}, 1);  // seeding does not count
  EXPECT_EQ(s.writes(kA, 0), 0u);
  EXPECT_EQ(s.writes(kA, 1), 0u);
  EXPECT_EQ(s.apply_counted(kA, Record{2}, 2, kNoTx, 1), 1u);
  EXPECT_EQ(s.apply_counted(kA, Record{3}, 3, kNoTx, 1), 2u);
  EXPECT_EQ(s.writes(kA, 1), 2u);
  // A newer window restarts the count.
  EXPECT_EQ(s.apply_counted(kA, Record{4}, 4, kNoTx, 3), 1u);
  EXPECT_EQ(s.writes(kA, 1), 0u);
  EXPECT_EQ(s.writes(kA, 3), 1u);
  // An older window installs but never rewinds the newer count.
  EXPECT_EQ(s.apply_counted(kA, Record{5}, 5, kNoTx, 2), 0u);
  EXPECT_EQ(s.writes(kA, 2), 0u);
  EXPECT_EQ(s.writes(kA, 3), 1u);
  EXPECT_EQ(s.read(kA).record.value, Record{5});
  // A plain apply (the kSeed control op's install) does not count.
  EXPECT_TRUE(s.apply(kA, Record{6}, 6, kNoTx));
  EXPECT_EQ(s.writes(kA, 3), 1u);
  // Neither does a re-seed of a counted object, and an absent key has none.
  s.seed(kA, Record{7}, 7);
  EXPECT_EQ(s.writes(kA, 3), 1u);
  EXPECT_EQ(s.writes(kB, 3), 0u);
  // A counted commit releases its protection like apply().
  ASSERT_TRUE(s.try_protect(kB, 100));
  EXPECT_EQ(s.apply_counted(kB, Record{1}, 1, 100, 3), 1u);
  EXPECT_EQ(s.read(kB).status, ReadStatus::kOk);
}

// One committed write on `key` at `now_ns`, counted the way
// dtm::Server::on_commit counts it: in the key's store entry, under the
// tracker's current window, raising the class maximum.
void commit_write(VersionedStore& store, ContentionTracker& tracker,
                  const ObjectKey& key, std::uint64_t now_ns = 0) {
  const std::uint32_t window = tracker.window(now_ns);
  tracker.note(window, key.cls,
               store.apply_counted(key, Record{1}, 1, kNoTx, window));
}

TEST(ContentionTracker, LevelsComeFromLastCompletedWindow) {
  VersionedStore store;
  ContentionTracker tracker;
  const std::uint32_t first = tracker.window(0);
  commit_write(store, tracker, kA);
  commit_write(store, tracker, kA);
  commit_write(store, tracker, kB);
  EXPECT_EQ(tracker.class_level(kA.cls), 0u);  // window not rolled yet
  tracker.roll();
  EXPECT_EQ(store.writes(kA, first), 2u);
  EXPECT_EQ(store.writes(kB, first), 1u);
  EXPECT_EQ(store.writes(kC, first), 0u);
  EXPECT_EQ(tracker.class_level(kA.cls), 2u);  // the hottest of kA and kB
  tracker.roll();
  EXPECT_EQ(store.writes(kA, tracker.window(0) - 1), 0u);
  EXPECT_EQ(tracker.class_level(kA.cls), 0u);  // stale window expired
}

TEST(ContentionTracker, ClassLevelIsHottestObject) {
  VersionedStore store;
  ContentionTracker tracker;
  for (int i = 0; i < 5; ++i) commit_write(store, tracker, kA);
  commit_write(store, tracker, kB);  // same class as kA
  commit_write(store, tracker, kC);  // different class
  tracker.roll();
  EXPECT_EQ(tracker.class_level(1), 5u);  // max, not 6 (the sum)
  EXPECT_EQ(tracker.class_level(2), 1u);
  EXPECT_EQ(tracker.class_level(3), 0u);
}

TEST(ContentionTracker, BatchClassLevels) {
  VersionedStore store;
  ContentionTracker tracker;
  commit_write(store, tracker, kA);
  commit_write(store, tracker, kC);
  tracker.roll();
  const auto levels = tracker.class_levels({2, 1, 9});
  EXPECT_EQ(levels, (std::vector<std::uint64_t>{1, 1, 0}));
}

// kA is the only key of its class written in the tests below, so its class
// level is its own last-window count.
TEST(ContentionTracker, TimeBasedRolling) {
  VersionedStore store;
  ContentionTracker tracker(/*window_ns=*/1000);
  commit_write(store, tracker, kA, 100);
  commit_write(store, tracker, kA, 200);
  tracker.maybe_roll(500);  // window not elapsed
  EXPECT_EQ(tracker.class_level(kA.cls), 0u);
  tracker.maybe_roll(1200);  // rolls
  EXPECT_EQ(tracker.class_level(kA.cls), 2u);
}

TEST(ContentionTracker, RollsExactlyAtTheBoundaryTick) {
  VersionedStore store;
  ContentionTracker tracker(/*window_ns=*/1000);
  // The first event anchors the window at 5000.
  commit_write(store, tracker, kA, 5000);
  // One tick before the boundary: same window.
  commit_write(store, tracker, kA, 5999);
  tracker.maybe_roll(5999);
  EXPECT_EQ(tracker.class_level(kA.cls), 0u);  // nothing completed yet
  tracker.maybe_roll(6000);  // elapsed == width: the boundary tick rolls
  EXPECT_EQ(tracker.class_level(kA.cls), 2u);
  // The new window is anchored at the roll time, not the old start.
  commit_write(store, tracker, kA, 6999);
  tracker.maybe_roll(6999);
  // Still the previous window's count.
  EXPECT_EQ(tracker.class_level(kA.cls), 2u);
  tracker.maybe_roll(7000);
  EXPECT_EQ(tracker.class_level(kA.cls), 1u);
}

TEST(ContentionTracker, ZeroWidthIsManualAndNegativeWidthIsRejected) {
  VersionedStore store;
  ContentionTracker manual(/*window_ns=*/0);
  commit_write(store, manual, kA);
  manual.maybe_roll(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(manual.class_level(kA.cls), 0u);  // zero width never auto-rolls
  manual.roll();
  EXPECT_EQ(manual.class_level(kA.cls), 1u);

  EXPECT_THROW(ContentionTracker(-1), std::invalid_argument);
  EXPECT_THROW(ContentionTracker(std::numeric_limits<std::int64_t>::min()),
               std::invalid_argument);
}

TEST(ContentionTracker, ACommitRollsTheWindowItself) {
  VersionedStore store;
  ContentionTracker tracker(/*window_ns=*/1000);
  commit_write(store, tracker, kA, 100);
  // Crosses the boundary: the window read rolls, then the write counts.
  commit_write(store, tracker, kA, 1500);
  EXPECT_EQ(tracker.class_level(kA.cls), 1u);
}

TEST(ContentionTracker, ConcurrentBumpsAreCounted) {
  VersionedStore store;
  ContentionTracker tracker;
  const std::uint32_t first = tracker.window(0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) commit_write(store, tracker, kA);
    });
  for (auto& th : threads) th.join();
  tracker.roll();
  EXPECT_EQ(store.writes(kA, first), 4000u);
  EXPECT_EQ(tracker.class_level(kA.cls), 4000u);
}

TEST(ContentionTracker, ACountReadBeforeARollLandsInTheCompletedWindow) {
  ContentionTracker tracker;
  const std::uint32_t first = tracker.window(0);
  tracker.roll();
  tracker.note(first, kA.cls, 3);  // its writer read the window pre-roll
  EXPECT_EQ(tracker.class_level(kA.cls), 3u);
  tracker.roll();
  tracker.note(first, kA.cls, 9);  // two windows old: dropped
  EXPECT_EQ(tracker.class_level(kA.cls), 0u);
  tracker.reset();
  EXPECT_EQ(tracker.window(0), first + 2);  // reset keeps the clock
}

TEST(VersionedStore, ClearDropsEverything) {
  VersionedStore s;
  s.seed(kA, Record{7}, 3);
  s.seed(kB, Record{8}, 1);
  ASSERT_TRUE(s.try_protect(kC, 9));
  s.clear();
  EXPECT_EQ(s.object_count(), 0u);
  EXPECT_EQ(s.protected_count(), 0u);
  EXPECT_EQ(s.read(kA).status, ReadStatus::kMissing);
  // The store is fully usable again after a clear.
  s.seed(kA, Record{1}, 1);
  EXPECT_EQ(s.read(kA).status, ReadStatus::kOk);
}

TEST(VersionedStore, ShardSnapshotsCoverTheStoreExactly) {
  VersionedStore s;
  for (std::uint64_t id = 0; id < 200; ++id)
    s.seed(ObjectKey{static_cast<ClassId>(id % 5), id}, Record{1}, id + 1);
  ASSERT_TRUE(s.try_protect(ObjectKey{9, 999}, 7));  // version-0 placeholder

  std::vector<std::pair<ObjectKey, VersionedRecord>> via_shards;
  for (std::size_t shard = 0; shard < VersionedStore::shard_count(); ++shard) {
    const auto cut = s.shard_snapshot(shard);
    via_shards.insert(via_shards.end(), cut.begin(), cut.end());
  }
  auto whole = s.snapshot();
  auto by_key = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(via_shards.begin(), via_shards.end(), by_key);
  std::sort(whole.begin(), whole.end(), by_key);
  EXPECT_EQ(via_shards, whole);
  EXPECT_EQ(whole.size(), 200u);  // the placeholder is skipped
}

// Snapshot consistency under concurrent writers.  Writers install records
// whose field always equals the version ({v, v}); any snapshot that
// observed a torn record — or a record going backwards between snapshots —
// would break the WAL's compaction contract (snapshot covers the log
// prefix).  Each per-shard cut is taken under that shard's lock, so every
// returned record must be internally consistent and monotone.
TEST(VersionedStore, SnapshotUnderConcurrentWritersIsNeverTorn) {
  VersionedStore s;
  constexpr std::uint64_t kKeys = 64;
  for (std::uint64_t id = 0; id < kKeys; ++id)
    s.seed(ObjectKey{1, id}, Record{1, 1}, 1);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t)
    writers.emplace_back([&, t] {
      std::uint64_t version = 2 + static_cast<std::uint64_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        for (std::uint64_t id = 0; id < kKeys; ++id) {
          const auto v = static_cast<Field>(version);
          s.apply(ObjectKey{1, id}, Record{v, v}, version, kNoTx);
        }
        version += 4;  // writers interleave distinct versions
      }
    });

  std::vector<std::uint64_t> last_seen(kKeys, 0);
  for (int round = 0; round < 200; ++round) {
    for (std::size_t shard = 0; shard < VersionedStore::shard_count();
         ++shard) {
      for (const auto& [key, rec] : s.shard_snapshot(shard)) {
        ASSERT_EQ(rec.value.size(), 2u);
        // Not torn: both fields and the version were written together.
        EXPECT_EQ(rec.value[0], static_cast<Field>(rec.version));
        EXPECT_EQ(rec.value[1], static_cast<Field>(rec.version));
        // Monotone across snapshots: versions only move forward.
        EXPECT_GE(rec.version, last_seen[key.id]);
        last_seen[key.id] = rec.version;
      }
    }
  }
  stop.store(true);
  for (auto& th : writers) th.join();
}

TEST(ObjectKey, OrderingAndHash) {
  EXPECT_LT((ObjectKey{1, 5}), (ObjectKey{2, 0}));
  EXPECT_LT((ObjectKey{1, 5}), (ObjectKey{1, 6}));
  EXPECT_EQ((ObjectKey{3, 3}), (ObjectKey{3, 3}));
  EXPECT_NE(ObjectKeyHash{}(ObjectKey{1, 2}), ObjectKeyHash{}(ObjectKey{2, 1}));
  EXPECT_EQ(to_string(ObjectKey{4, 7}), "4:7");
}

TEST(Record, ApproxSizeAndEquality) {
  Record r{1, 2, 3};
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.approx_size(), 3 * sizeof(Field) + sizeof(std::uint32_t));
  EXPECT_EQ(r, (Record{1, 2, 3}));
  EXPECT_NE(r, (Record{1, 2}));
}

}  // namespace
}  // namespace acn::store
