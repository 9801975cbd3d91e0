// Per-replica durable state: write-ahead log + snapshots + recovery.
//
// ReplicaPersistence is the file-backed dtm::DurabilitySink one server
// attaches.  Three mechanisms cooperate:
//
//   * Group commit.  Appends land in an in-memory buffer and reach the
//     segment file together: the first append after `flush_interval_ns`
//     since the previous flush writes the whole buffer and fsyncs once, so
//     the fsync rate is bounded by the interval rather than the commit
//     rate.  The window's records are *acknowledged before they are
//     durable* (async group commit); a crash loses at most one window,
//     and the rejoin delta catch-up refetches exactly what was lost.
//
//   * Snapshots + compaction.  When `snapshot_every_bytes` of log have
//     accumulated, log_commit() tells (exactly one of) the callers to dump
//     the store.  write_snapshot() rotates to a fresh segment, writes the
//     dump to a temp file, fsyncs, atomically renames it to
//     `snap-N.snap` (N = last covered segment), then deletes segments
//     <= N and all but the previous snapshot (kept as a fallback against
//     a rotted newest snapshot).  Unresolved prepares ride inside the
//     snapshot because compaction may delete their log records.
//
//   * Recovery.  recover() loads the newest snapshot that passes its CRC,
//     replays every record in segments > N (re-installing committed
//     writes version-guardedly, tracking prepares until a commit/abort
//     resolves them), truncates a torn segment tail in place, and returns
//     the rebuilt objects plus the still-open prepares for the server to
//     re-arm as leased protections.  Future appends go to a fresh segment.
//
// All public methods are thread-safe; handlers on many client threads log
// concurrently.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "src/dtm/durability.hpp"
#include "src/obs/obs.hpp"
#include "src/wal/format.hpp"

namespace acn::wal {

struct WalConfig {
  /// Per-replica data directory, created on demand.  One live
  /// ReplicaPersistence per directory.
  std::string dir;
  /// Group-commit window: > 0 batches appends and flushes when a new
  /// append lands at least this much after the previous flush; 0 flushes
  /// (and fsyncs) every append; < 0 flushes only explicitly.
  std::int64_t flush_interval_ns = 2'000'000;
  /// Snapshot + compact once this many log bytes accumulate since the
  /// last snapshot; 0 disables automatic snapshots.
  std::uint64_t snapshot_every_bytes = std::uint64_t{1} << 20;
  /// fsync data after each flush and snapshot.  Off keeps unit tests fast
  /// while still exercising the full append/replay path.
  bool fsync = true;

  friend bool operator==(const WalConfig&, const WalConfig&) = default;
};

struct RecoveredState {
  std::vector<std::pair<store::ObjectKey, store::VersionedRecord>> objects;
  std::vector<dtm::OpenPrepare> open_prepares;
  std::size_t replayed_records = 0;   // log records applied after the snapshot
  std::size_t snapshot_objects = 0;   // objects loaded from the snapshot
  bool log_torn = false;              // a torn/corrupt tail was dropped
};

class ReplicaPersistence final : public dtm::DurabilitySink {
 public:
  explicit ReplicaPersistence(WalConfig config);
  ~ReplicaPersistence() override;

  ReplicaPersistence(const ReplicaPersistence&) = delete;
  ReplicaPersistence& operator=(const ReplicaPersistence&) = delete;

  // DurabilitySink
  void log_prepare(const dtm::PrepareRequest& prepare) override;
  bool log_commit(const dtm::CommitRequest& commit) override;
  void log_abort(dtm::TxId tx,
                 const std::vector<store::ObjectKey>& keys) override;
  void write_snapshot(
      const std::function<dtm::SnapshotData()>& provide) override;

  /// Push the group-commit buffer to disk now.
  void flush();

  /// Simulated crash: records still in the group-commit buffer never
  /// reached the disk — drop them.
  void drop_unflushed();

  /// Crash losing the disk: delete every segment and snapshot and start
  /// over empty.
  void wipe();

  /// Rebuild state from disk (see the class comment).  Anything buffered
  /// but unflushed is discarded — recover() models a restart.
  RecoveredState recover();

  void set_obs(obs::Observability* obs) noexcept { obs_ = obs; }

  const WalConfig& config() const noexcept { return config_; }

  // Introspection for tests and benches.
  std::uint64_t fsync_count() const;
  std::uint64_t appended_bytes() const;     // framed bytes accepted so far
  std::uint64_t buffered_bytes() const;     // accepted but not yet on disk
  std::vector<std::uint64_t> segment_seqs() const;   // sorted ascending
  std::vector<std::uint64_t> snapshot_seqs() const;  // sorted ascending

 private:
  void append_locked(const dtm::Request& request);
  void flush_locked();
  void fsync_file_locked(std::FILE* file);
  void close_segment_locked();
  void scan_directory_locked();  // refresh next_seq_ from on-disk names

  WalConfig config_;
  obs::Observability* obs_ = nullptr;

  mutable std::mutex mutex_;
  std::vector<std::uint8_t> buffer_;   // framed, not yet written
  std::FILE* segment_ = nullptr;       // open segment, nullptr until needed
  std::uint64_t segment_seq_ = 0;      // seq of `segment_` when open
  std::uint64_t next_seq_ = 1;         // seq the next opened segment gets
  std::uint64_t last_flush_ns_ = 0;
  std::uint64_t appended_bytes_ = 0;
  std::uint64_t bytes_since_snapshot_ = 0;
  bool snapshot_claimed_ = false;  // a log_commit caller owes a snapshot
  std::uint64_t fsyncs_ = 0;
};

}  // namespace acn::wal
