// Observability bundle: one metrics registry + one tracer + the standard
// instrumentation handles the protocol layers share.
//
// The harness driver owns an Observability instance per run (or one across
// runs — Snapshot::since() makes per-run deltas) and hands a pointer down
// through the executor/stub/controller configs.  A null pointer at any
// instrumentation point means "off": the guard is a single branch, so the
// layers stay cheap when nobody is watching (bench/micro_obs measures it).
#pragma once

#include <cstddef>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace acn::obs {

struct ObsConfig {
  bool metrics_enabled = true;
  bool trace_enabled = false;
  std::size_t ring_capacity = std::size_t{1} << 15;  // events per thread
};

/// Index for the per-reason abort counters (mirrors dtm::AbortKind, which
/// obs cannot name — the dependency points the other way).
enum AbortReason : int {
  kReasonValidation = 0,
  kReasonBusy = 1,
  kReasonUnavailable = 2,
  kReasonCount = 3,
};

const char* abort_reason_name(int reason) noexcept;

class Observability {
 public:
  explicit Observability(ObsConfig config = {});

  MetricsRegistry metrics;
  Tracer tracer;

  // -- transaction lifecycle (src/acn executor) ----------------------------
  MetricsRegistry::Counter tx_commits;
  MetricsRegistry::Counter tx_aborts_full;
  MetricsRegistry::Counter tx_aborts_partial;
  MetricsRegistry::Counter aborts_full_reason[kReasonCount];
  MetricsRegistry::Counter aborts_partial_reason[kReasonCount];
  MetricsRegistry::Counter blocks_executed;
  MetricsRegistry::Histogram tx_latency_ns;
  MetricsRegistry::Histogram block_latency_ns;

  // -- QR-DTM client runtime (src/dtm quorum stub, 2PC phases) -------------
  MetricsRegistry::Counter rpc_reads;
  MetricsRegistry::Counter rpc_batched_reads;
  /// Quorum rounds a batch avoided versus issuing its keys sequentially
  /// (batch of N keys = N-1 rounds saved).
  MetricsRegistry::Counter rpcs_saved;
  MetricsRegistry::Histogram read_batch_size;
  MetricsRegistry::Counter rpc_validates;
  MetricsRegistry::Counter rpc_prepares;
  MetricsRegistry::Counter rpc_commits;
  MetricsRegistry::Counter rpc_aborts;
  MetricsRegistry::Counter rpc_contention_queries;
  MetricsRegistry::Histogram rpc_read_ns;
  MetricsRegistry::Histogram rpc_prepare_ns;
  MetricsRegistry::Histogram rpc_commit_ns;

  // -- fault injection & recovery (src/dtm server, src/chaos, harness) -----
  MetricsRegistry::Counter rpc_lease_expired;    // prepare leases reclaimed
  MetricsRegistry::Counter rpc_commit_replays;   // phase-two rounds re-sent
  MetricsRegistry::Counter rpc_commit_rejected;  // commits refused: expired
  MetricsRegistry::Counter chaos_crashes;
  MetricsRegistry::Counter chaos_restarts;
  MetricsRegistry::Counter chaos_partitions;
  MetricsRegistry::Counter chaos_heals;
  MetricsRegistry::Counter chaos_drop_bursts;
  MetricsRegistry::Counter chaos_latency_spikes;
  MetricsRegistry::Counter recovery_catchup_keys;  // versions pulled on rejoin
  // Cooperative termination of in-doubt cross-shard prepares.
  MetricsRegistry::Counter indoubt_queries;          // DecisionQuery handled
  MetricsRegistry::Counter indoubt_resolved_commit;  // parked tx committed
  MetricsRegistry::Counter indoubt_resolved_abort;   // parked tx aborted

  // -- transport wire level (src/net Network, src/transport TCP) -----------
  /// Emitted identically by both transports: real socket bytes on TCP,
  /// approx_size() estimates on sim (the driver folds the per-run delta of
  /// net::TransportCounters in at run end).
  MetricsRegistry::Counter transport_bytes_sent;
  MetricsRegistry::Counter transport_bytes_recv;
  MetricsRegistry::Counter transport_reconnects;
  MetricsRegistry::Counter transport_frames_corrupt;
  /// Simulated-delay fidelity (sim transport only; the driver folds in the
  /// per-run delta of net::NetStats): rounds that injected delay, and the
  /// sums of their requested and actual waits.
  MetricsRegistry::Counter net_delay_rounds;
  MetricsRegistry::Counter net_delay_requested_ns;
  MetricsRegistry::Counter net_delay_actual_ns;

  // -- durability: WAL, snapshots, log-replay recovery (src/wal, harness) --
  MetricsRegistry::Counter wal_append_bytes;      // framed bytes logged
  MetricsRegistry::Counter wal_fsync_count;       // group-commit flushes synced
  MetricsRegistry::Counter wal_replay_records;    // log records replayed
  MetricsRegistry::Counter snapshot_write_bytes;  // snapshot files written
  /// Keys a durable rejoin still had to fetch from peers after log replay
  /// (the delta the WAL could not cover: its lost group-commit window).
  MetricsRegistry::Counter recovery_delta_keys;
  MetricsRegistry::Histogram recovery_time_ns;  // restart_node wall time

  // -- speculative prefetch (src/acn executor) -----------------------------
  MetricsRegistry::Counter prefetch_hits;    // speculative reads consumed
  MetricsRegistry::Counter prefetch_wasted;  // fetched but discarded

  // -- client-side backoff (src/dtm quorum stub) ---------------------------
  /// Total nanoseconds slept in the stub's busy-retry backoff; with the
  /// scheduler's admission gate in front, this should shrink — backoff
  /// becomes the second line of defense instead of the first.
  MetricsRegistry::Counter rpc_busy_backoff_ns;

  // -- contention-aware scheduler (src/sched) ------------------------------
  MetricsRegistry::Counter sched_admit_immediate;  // admitted without waiting
  MetricsRegistry::Counter sched_admit_waits;      // admissions that blocked
  MetricsRegistry::Counter sched_admit_aged;       // force-admitted by aging
  MetricsRegistry::Histogram sched_admit_wait_ns;
  MetricsRegistry::Gauge sched_admit_window;       // last AIMD window x1000
  MetricsRegistry::Gauge sched_hot_keys;           // tracked keys now hot

  // -- queue-oriented deterministic lane (src/queue) -----------------------
  MetricsRegistry::Counter queue_epochs;          // epochs planned
  MetricsRegistry::Counter queue_epoch_commits;   // epochs committed
  MetricsRegistry::Counter queue_epoch_retries;   // epoch commit re-runs
  MetricsRegistry::Histogram queue_epoch_size;    // entries per epoch
  MetricsRegistry::Counter queue_spec_commits;    // entries committed in-epoch
  MetricsRegistry::Counter queue_spec_reads;      // reads from earlier-in-epoch
  MetricsRegistry::Counter queue_spec_mispredicts;  // unplanned-key demotions
  MetricsRegistry::Counter queue_spec_demotions;  // total demotions (all causes)

  // -- closed nesting (src/nesting) ----------------------------------------
  MetricsRegistry::Counter classify_partial;
  MetricsRegistry::Counter classify_full;
  MetricsRegistry::Counter remote_reads;
  MetricsRegistry::Counter cached_reads;

  // -- ACN adaptation (src/acn monitor + controller) -----------------------
  MetricsRegistry::Counter monitor_refreshes;
  MetricsRegistry::Counter monitor_observes;
  MetricsRegistry::Counter adaptations;
  MetricsRegistry::Counter recompositions;
  MetricsRegistry::Gauge plan_blocks;
};

/// Observes elapsed wall time into a histogram when destroyed, once per
/// sample armed; a default-constructed instance is a no-op.  Used for RPC
/// phase latencies where abort exits must still be measured.
class ScopedLatency {
 public:
  ScopedLatency() = default;
  explicit ScopedLatency(MetricsRegistry::Histogram histogram);
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;
  ~ScopedLatency();

  /// Start (or restart) timing into `histogram`, observing the elapsed
  /// time `samples` times (one per operation the span times).
  void arm(MetricsRegistry::Histogram histogram, std::size_t samples = 1);

 private:
  MetricsRegistry::Histogram histogram_;
  std::uint64_t start_ns_ = 0;
  std::size_t samples_ = 0;
};

}  // namespace acn::obs
