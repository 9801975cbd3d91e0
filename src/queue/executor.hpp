// Speculative epoch execution: the workspace and the per-entry runner.
//
// An epoch executes against a Workspace — a client-side image of the
// cluster state the planner prefetched for the epoch's planned keys.
// Entries run speculatively: reads are served from (a) the entry's own
// buffered writes, (b) writes *published* by earlier-priority entries of
// the same epoch (the speculative read — QueCC's "read from the queue, not
// the store"), or (c) the prefetched committed version.  Writes are
// buffered privately and published into the workspace only when the entry
// completes, so a failed entry leaves no trace and its queue successors
// read pre-epoch state.
//
// Misprediction is the speculation escape hatch: any access to a key
// OUTSIDE the entry's planned footprint (a key produced mid-transaction —
// pointer chase, fetched counter) throws MispredictedAccess.  The entry is
// then *demoted*: it publishes nothing, its dependents proceed as if it
// never ran, and the submitter re-executes it on the optimistic ACN path
// after the epoch commits — which serializes it after the epoch, exactly
// the order the epoch's atomic commit establishes.  Reads of a planned key
// no replica holds demote the same way (the optimistic path surfaces it as
// dtm::ObjectMissing, a workload bug).
//
// Nothing here touches the network: the planner prefetches every planned
// key up front (one batched quorum round per group), so intra-epoch
// execution is pure local compute and the executor pool never stalls on
// I/O mid-queue.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "src/acn/txir.hpp"
#include "src/queue/epoch.hpp"
#include "src/store/record.hpp"

namespace acn::queue {

/// Thrown by SpecBackend on an access outside the planned footprint (or to
/// a planned key the prefetch proved absent).  Deliberately NOT a
/// dtm::TxAbort: workload programs and retry loops catch TxAbort, and a
/// misprediction must reach the epoch runner, not a retry loop.
struct MispredictedAccess {
  store::ObjectKey key;
};

/// Shared per-epoch state.  `cache`/`absent` are filled by the planner
/// before executors start and read-only during execution; `written` and
/// `reads_used` accumulate publishes.  The mutex guards map structure —
/// per-key access ordering is already enforced by the epoch plan's
/// dependency DAG (two entries sharing a planned key never run
/// concurrently).
struct Workspace {
  std::mutex mutex;
  /// Prefetched committed versions of the planned keys.
  std::unordered_map<store::ObjectKey, store::VersionedRecord,
                     store::ObjectKeyHash>
      cache;
  /// Planned keys no replica holds (blind-insert targets).
  std::unordered_set<store::ObjectKey, store::ObjectKeyHash> absent;
  /// Published speculative writes; queue order makes the last writer's
  /// value the epoch's final value for the key.
  std::unordered_map<store::ObjectKey, store::Record, store::ObjectKeyHash>
      written;
  /// Prefetched versions consumed by committed entries — the epoch
  /// transaction's read set, validated at epoch commit.
  std::map<store::ObjectKey, store::VersionedRecord> reads_used;
};

/// What one entry's speculative run produced.
struct EntryOutcome {
  bool committed = false;
  std::uint64_t ops = 0;
  /// Reads served from earlier-in-epoch published writes.
  std::uint64_t spec_reads = 0;
  /// Set when the entry was demoted: the unplanned (or absent) key.
  std::optional<store::ObjectKey> mispredicted;
};

/// The accesses of one epoch entry, over a Workspace: read-your-writes,
/// then published epoch writes, then the prefetched cache; buffered writes
/// published by the caller on success only.
class SpecBackend final : public nesting::TxAccess {
 public:
  /// `planned` must be canonical (ascending) — the entry's predicted
  /// footprint; it bounds every access.
  SpecBackend(Workspace& workspace, const KeyFootprint& planned);

  ir::Record read(const ir::ObjectKey& key) override;
  void write(const ir::ObjectKey& key, ir::Record value) override;
  void insert(const ir::ObjectKey& key, ir::Record value) override;

  /// Publish buffered writes and consumed reads into the workspace (call
  /// once, after the program ran to completion).
  void publish();

  std::uint64_t spec_reads() const noexcept { return spec_reads_; }

 private:
  bool planned(const ir::ObjectKey& key) const;

  Workspace& workspace_;
  const KeyFootprint& planned_;
  std::map<ir::ObjectKey, ir::Record> writes_;
  std::map<ir::ObjectKey, store::VersionedRecord> cluster_reads_;
  std::uint64_t spec_reads_ = 0;
};

/// Run one epoch entry speculatively: execute `program` over the workspace
/// and publish on success.  A MispredictedAccess demotes the entry
/// (nothing published) and is reported in the outcome; any other exception
/// propagates (a workload bug should surface, not vanish into demotion).
EntryOutcome run_entry(const ir::TxProgram& program,
                       const std::vector<ir::Record>& params,
                       const KeyFootprint& planned, Workspace& workspace);

}  // namespace acn::queue
