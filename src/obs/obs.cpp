#include "src/obs/obs.hpp"

#include <string>

#include "src/common/clock.hpp"

namespace acn::obs {

const char* abort_reason_name(int reason) noexcept {
  switch (reason) {
    case kReasonValidation:
      return "validation";
    case kReasonBusy:
      return "busy";
    case kReasonUnavailable:
      return "unavailable";
  }
  return "unknown";
}

namespace {
// 100ns .. ~1.3s in half-decade-ish steps: covers one RPC through a
// many-retry transaction on the simulated cluster.
std::vector<std::uint64_t> latency_bounds() {
  return MetricsRegistry::exponential_bounds(100, 2.0, 24);
}

// 1..16 keys per batched read, plus an overflow bucket for wider fan-out.
std::vector<std::uint64_t> batch_bounds() {
  return {1, 2, 3, 4, 6, 8, 12, 16};
}

// 1..256 transactions per planned epoch (the planner's cut size).
std::vector<std::uint64_t> epoch_bounds() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256};
}
}  // namespace

Observability::Observability(ObsConfig config)
    : tracer(config.ring_capacity),
      tx_commits(metrics.counter("tx.commit")),
      tx_aborts_full(metrics.counter("tx.abort.full")),
      tx_aborts_partial(metrics.counter("tx.abort.partial")),
      blocks_executed(metrics.counter("block.executed")),
      tx_latency_ns(metrics.histogram("tx.latency_ns", latency_bounds())),
      block_latency_ns(metrics.histogram("block.latency_ns", latency_bounds())),
      rpc_reads(metrics.counter("rpc.read")),
      rpc_batched_reads(metrics.counter("rpc.read.batched")),
      rpcs_saved(metrics.counter("rpc.read.saved")),
      read_batch_size(metrics.histogram("rpc.read.batch_size", batch_bounds())),
      rpc_validates(metrics.counter("rpc.validate")),
      rpc_prepares(metrics.counter("rpc.prepare")),
      rpc_commits(metrics.counter("rpc.commit")),
      rpc_aborts(metrics.counter("rpc.abort")),
      rpc_contention_queries(metrics.counter("rpc.contention")),
      rpc_read_ns(metrics.histogram("rpc.read_ns", latency_bounds())),
      rpc_prepare_ns(metrics.histogram("rpc.prepare_ns", latency_bounds())),
      rpc_commit_ns(metrics.histogram("rpc.commit_ns", latency_bounds())),
      rpc_lease_expired(metrics.counter("rpc.lease.expired")),
      rpc_commit_replays(metrics.counter("rpc.commit.replayed")),
      rpc_commit_rejected(metrics.counter("rpc.commit.rejected")),
      chaos_crashes(metrics.counter("chaos.crash")),
      chaos_restarts(metrics.counter("chaos.restart")),
      chaos_partitions(metrics.counter("chaos.partition")),
      chaos_heals(metrics.counter("chaos.heal")),
      chaos_drop_bursts(metrics.counter("chaos.drop_burst")),
      chaos_latency_spikes(metrics.counter("chaos.latency_spike")),
      recovery_catchup_keys(metrics.counter("recovery.catchup.keys")),
      indoubt_queries(metrics.counter("indoubt.queries")),
      indoubt_resolved_commit(metrics.counter("indoubt.resolved.commit")),
      indoubt_resolved_abort(metrics.counter("indoubt.resolved.abort")),
      transport_bytes_sent(metrics.counter("transport.bytes.sent")),
      transport_bytes_recv(metrics.counter("transport.bytes.recv")),
      transport_reconnects(metrics.counter("transport.reconnects")),
      transport_frames_corrupt(metrics.counter("transport.frames.corrupt")),
      net_delay_rounds(metrics.counter("net.delay.rounds")),
      net_delay_requested_ns(metrics.counter("net.delay.requested_ns")),
      net_delay_actual_ns(metrics.counter("net.delay.actual_ns")),
      wal_append_bytes(metrics.counter("wal.append.bytes")),
      wal_fsync_count(metrics.counter("wal.fsync.count")),
      wal_replay_records(metrics.counter("wal.replay.records")),
      snapshot_write_bytes(metrics.counter("snapshot.write.bytes")),
      recovery_delta_keys(metrics.counter("recovery.delta.keys")),
      recovery_time_ns(metrics.histogram("recovery.time_ns", latency_bounds())),
      prefetch_hits(metrics.counter("exec.prefetch.hit")),
      prefetch_wasted(metrics.counter("exec.prefetch.waste")),
      rpc_busy_backoff_ns(metrics.counter("rpc.busy.backoff_ns")),
      sched_admit_immediate(metrics.counter("sched.admit.immediate")),
      sched_admit_waits(metrics.counter("sched.admit.waits")),
      sched_admit_aged(metrics.counter("sched.admit.aged")),
      sched_admit_wait_ns(
          metrics.histogram("sched.admit.wait_ns", latency_bounds())),
      sched_admit_window(metrics.gauge("sched.admit.window_milli")),
      sched_hot_keys(metrics.gauge("sched.hot_keys")),
      queue_epochs(metrics.counter("queue.epoch.planned")),
      queue_epoch_commits(metrics.counter("queue.epoch.commits")),
      queue_epoch_retries(metrics.counter("queue.epoch.retries")),
      queue_epoch_size(metrics.histogram("queue.epoch.size", epoch_bounds())),
      queue_spec_commits(metrics.counter("queue.spec.commits")),
      queue_spec_reads(metrics.counter("queue.spec.reads")),
      queue_spec_mispredicts(metrics.counter("queue.spec.mispredict")),
      queue_spec_demotions(metrics.counter("queue.spec.demoted")),
      classify_partial(metrics.counter("nesting.classify.partial")),
      classify_full(metrics.counter("nesting.classify.full")),
      remote_reads(metrics.counter("nesting.read.remote")),
      cached_reads(metrics.counter("nesting.read.cached")),
      monitor_refreshes(metrics.counter("acn.monitor.refresh")),
      monitor_observes(metrics.counter("acn.monitor.observe")),
      adaptations(metrics.counter("acn.adaptations")),
      recompositions(metrics.counter("acn.recompositions")),
      plan_blocks(metrics.gauge("acn.plan.blocks")) {
  for (int reason = 0; reason < kReasonCount; ++reason) {
    const std::string suffix = abort_reason_name(reason);
    aborts_full_reason[reason] = metrics.counter("tx.abort.full." + suffix);
    aborts_partial_reason[reason] =
        metrics.counter("tx.abort.partial." + suffix);
  }
  metrics.set_enabled(config.metrics_enabled);
  tracer.set_enabled(config.trace_enabled);
}

ScopedLatency::ScopedLatency(MetricsRegistry::Histogram histogram)
    : histogram_(histogram), start_ns_(now_ns()), armed_(true) {}

void ScopedLatency::arm(MetricsRegistry::Histogram histogram) {
  histogram_ = histogram;
  start_ns_ = now_ns();
  armed_ = true;
}

ScopedLatency::~ScopedLatency() {
  if (armed_) histogram_.observe(now_ns() - start_ns_);
}

}  // namespace acn::obs
