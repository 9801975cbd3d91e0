#include "perfbench/src/wrappers.hpp"

#include <time.h>

#include "src/common/clock.hpp"
#include "src/dtm/abort.hpp"

namespace perfbench {
namespace {

using acn::now_ns;

constexpr const char* kDtmSpanNames[kDtmKinds] = {
    "dtm.read",    "dtm.validate",   "dtm.prepare",     "dtm.commit",
    "dtm.abort",   "dtm.contention", "dtm.batched_read", "dtm.decision"};

// Running totals of the calling thread; readers take differences.
thread_local bool tls_in_tx = false;
thread_local std::uint64_t tls_inline_handler_ns = 0;
thread_local std::uint64_t tls_inline_wal_ns = 0;
thread_local std::uint64_t tls_wal_ns = 0;
thread_local std::uint64_t tls_last_handler_ns = 0;

/// Whether a replica turned the request down (conflict, busy, expired).
bool refused(const acn::dtm::Response& response) {
  using namespace acn::dtm;
  return std::visit(
      [](const auto& r) -> bool {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, ReadResponse>) {
          return r.code != ReadCode::kOk;
        } else if constexpr (std::is_same_v<T, BatchedReadResponse>) {
          for (const ReadCode code : r.codes)
            if (code != ReadCode::kOk) return true;
          return false;
        } else if constexpr (std::is_same_v<T, ValidateResponse>) {
          return r.busy || !r.invalid.empty();
        } else if constexpr (std::is_same_v<T, PrepareResponse>) {
          return r.code != PrepareCode::kOk;
        } else if constexpr (std::is_same_v<T, CommitResponse>) {
          return !r.ok();
        } else if constexpr (std::is_same_v<T, DecisionReply>) {
          return r.code == DecisionCode::kUnknown;
        } else {
          return false;
        }
      },
      response.payload);
}

acn::dtm::Response timed_handle(acn::dtm::Server& server, acn::net::NodeId from,
                                const acn::dtm::Request& request,
                                Instruments& in) {
  const std::size_t kind = request.payload.index();
  acn::obs::Tracer::Span span(in.tracer, kDtmSpanNames[kind], "dtm");
  const std::uint64_t wal_before = tls_wal_ns;
  const std::uint64_t start = now_ns();
  acn::dtm::Response response = server.handle(from, request);
  const std::uint64_t busy = now_ns() - start;
  const std::uint64_t wal = tls_wal_ns - wal_before;
  Ledger& ledger = in.ledger;
  ledger.add(static_cast<Counter>(kDtmCalls + kind), 1);
  ledger.add(static_cast<Counter>(kDtmBusyNs + kind), busy);
  if (refused(response)) ledger.add(static_cast<Counter>(kDtmRefused + kind), 1);
  ledger.add(kDtmWalNs, wal);
  if (tls_in_tx) {
    tls_inline_handler_ns += busy;
    tls_inline_wal_ns += wal;
  } else {
    ledger.add(kLaneHandlerNs, busy);
  }
  tls_last_handler_ns = busy;
  return response;
}

/// Times one WAL call: span, counters, and the thread's WAL total (which the
/// enclosing handler subtracts to get its own self time).
class WalTimer {
 public:
  WalTimer(Instruments& in, const char* span, Counter calls, Counter ns)
      : in_(in), span_(in.tracer, span, "wal"), calls_(calls), ns_(ns) {}
  WalTimer(const WalTimer&) = delete;
  WalTimer& operator=(const WalTimer&) = delete;
  ~WalTimer() {
    const std::uint64_t end = now_ns();
    const std::uint64_t elapsed = end - start_;
    tls_wal_ns += elapsed;
    if (calls_ != kCounterCount) in_.ledger.add(calls_, 1);
    in_.ledger.add(ns_, elapsed);
    if (ns_ == kWalCommitNs) in_.ledger.record(kWalCommit, end, elapsed);
  }

 private:
  Instruments& in_;
  acn::obs::Tracer::Span span_;
  Counter calls_;
  Counter ns_;
  std::uint64_t start_ = now_ns();
};

}  // namespace

std::uint64_t thread_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t last_handler_ns() noexcept { return tls_last_handler_ns; }

void TimedGate::admit(const acn::KeyFootprint& footprint) {
  const bool hot = inner_->any_hot(footprint);
  acn::obs::Tracer::Span span(in_.tracer, "sched.admit", "sched");
  const std::uint64_t start = now_ns();
  inner_->admit(footprint);
  const std::uint64_t end = now_ns();
  in_.ledger.add(kAdmits, 1);
  if (hot) in_.ledger.add(kAdmitsHot, 1);
  in_.ledger.add(kAdmitWaitNs, end - start);
  in_.ledger.record(kAdmitWait, end, end - start);
}

void MeasuredSubmitter::run(acn::Protocol protocol,
                            const acn::RunOptions& options,
                            const std::vector<acn::ir::Record>& params,
                            acn::ExecStats& stats) {
  if (in_.traced()) {
    run_traced(protocol, options, params, stats);
    return;
  }
  const std::uint64_t start = now_ns();
  bool failed = false;
  try {
    inner_->run(protocol, options, params, stats);
  } catch (const acn::dtm::TxAbort&) {
    failed = true;
  }
  const std::uint64_t end = now_ns();
  in_.ledger.add(kTxAttempted, 1);
  in_.ledger.add(failed ? kTxFailed : kTxCommitted, 1);
  // A failed transaction misses every latency limit.
  in_.ledger.record(kLatency, end, failed ? UINT64_MAX : end - start);
}

void MeasuredSubmitter::run_traced(acn::Protocol protocol,
                                   const acn::RunOptions& options,
                                   const std::vector<acn::ir::Record>& params,
                                   acn::ExecStats& stats) {
  acn::RunOptions gated = options;
  if (options.scheduler != nullptr) {
    gate_.wrap(options.scheduler);
    gated.scheduler = &gate_;
  }
  const acn::ExecStats before = stats;
  const std::uint64_t handler_before = tls_inline_handler_ns;
  const std::uint64_t wal_before = tls_inline_wal_ns;
  bool failed = false;
  acn::obs::Tracer::Span span(in_.tracer, "tx", "client");
  const std::uint64_t cpu_start = thread_cpu_ns();
  const std::uint64_t start = now_ns();
  tls_in_tx = true;
  try {
    inner_->run(protocol, gated, params, stats);
  } catch (const acn::dtm::TxAbort&) {
    failed = true;
  } catch (...) {
    tls_in_tx = false;
    throw;
  }
  tls_in_tx = false;
  const std::uint64_t end = now_ns();
  const std::uint64_t cpu = thread_cpu_ns() - cpu_start;
  span.finish();

  Ledger& ledger = in_.ledger;
  ledger.add(kTxAttempted, 1);
  ledger.add(failed ? kTxFailed : kTxCommitted, 1);
  ledger.record(kLatency, end, failed ? UINT64_MAX : end - start);
  ledger.add(kTxWallNs, end - start);
  ledger.add(kTxCpuNs, cpu);
  ledger.add(kInlineHandlerNs, tls_inline_handler_ns - handler_before);
  ledger.add(kInlineWalNs, tls_inline_wal_ns - wal_before);
  ledger.add(kExecCommits, stats.commits - before.commits);
  ledger.add(kFullAborts, stats.full_aborts - before.full_aborts);
  ledger.add(kPartialAborts, stats.partial_aborts - before.partial_aborts);
  ledger.add(kOps, stats.ops_executed - before.ops_executed);
  ledger.add(kBlocks, stats.blocks_executed - before.blocks_executed);
}

acn::harness::SubmitterFactory measured_factory(
    acn::harness::SubmitterFactory inner, Instruments& in) {
  return [inner = std::move(inner), &in](
             acn::harness::Cluster& cluster, std::size_t client,
             const acn::ExecutorConfig& config, std::uint64_t seed)
             -> std::unique_ptr<acn::harness::Submitter> {
    return std::make_unique<MeasuredSubmitter>(
        inner(cluster, client, config, seed), in);
  };
}

acn::shard::LaneOutcome TimedLane::submit(
    const acn::ir::TxProgram& program,
    const std::vector<acn::ir::Record>& params,
    const acn::KeyFootprint& predicted, acn::ExecStats& stats) {
  acn::obs::Tracer::Span span(in_.tracer, "lane.submit", "queue");
  const std::uint64_t start = now_ns();
  const acn::shard::LaneOutcome outcome =
      inner_->submit(program, params, predicted, stats);
  in_.ledger.add(kLaneSubmits, 1);
  in_.ledger.add(kLaneWaitNs, now_ns() - start);
  return outcome;
}

void TimedSink::log_prepare(const acn::dtm::PrepareRequest& prepare) {
  WalTimer timer(in_, "wal.log_prepare", kWalPrepares, kWalPrepareNs);
  inner_.log_prepare(prepare);
}

bool TimedSink::log_commit(const acn::dtm::CommitRequest& commit) {
  WalTimer timer(in_, "wal.log_commit", kWalCommits, kWalCommitNs);
  return inner_.log_commit(commit);
}

void TimedSink::log_abort(acn::dtm::TxId tx,
                          const std::vector<acn::store::ObjectKey>& keys) {
  WalTimer timer(in_, "wal.log_abort", kCounterCount, kWalAbortNs);
  inner_.log_abort(tx, keys);
}

void TimedSink::write_snapshot(
    const std::function<acn::dtm::SnapshotData()>& provide) {
  WalTimer timer(in_, "wal.snapshot", kSnapshots, kSnapshotNs);
  inner_.write_snapshot(provide);
}

std::vector<std::unique_ptr<TimedSink>> instrument_servers(
    acn::harness::Cluster& cluster, Instruments& in) {
  std::vector<std::unique_ptr<TimedSink>> sinks;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    acn::dtm::Server* server = &cluster.server(i);
    cluster.network().register_node(
        static_cast<acn::net::NodeId>(i),
        [server, &in](acn::net::NodeId from, const acn::dtm::Request& request) {
          return timed_handle(*server, from, request, in);
        });
    if (acn::wal::ReplicaPersistence* wal = cluster.persistence(i)) {
      sinks.push_back(std::make_unique<TimedSink>(*wal, in));
      server->set_durability(sinks.back().get());
    }
  }
  return sinks;
}

}  // namespace perfbench
