// Forwarding wrappers around each layer's public entry point.
//
// The benchmark never edits the program: it measures by interposing on the
// seams the program already exposes.
//
//   MeasuredSubmitter  harness::Submitter   one per client thread; times
//                                           every transaction (always on)
//   TimedGate          acn::SchedulerGate   admission wait (traced run)
//   TimedLane          shard::Lane          epoch-lane wait (traced run)
//   TimedSink          dtm::DurabilitySink  WAL appends and snapshots
//   instrument_servers net::Network handler Server::handle per request kind
//
// In an untraced run only the submitter records: two clock reads per
// transaction.  In a traced run every wrapper also records a span into the
// obs::Tracer, so handler and WAL spans nest under the client's tx span on
// the same thread.
#pragma once

#include <memory>
#include <vector>

#include "perfbench/src/ledger.hpp"
#include "src/dtm/durability.hpp"
#include "src/harness/cluster.hpp"
#include "src/harness/driver.hpp"
#include "src/obs/trace.hpp"
#include "src/shard/client.hpp"

namespace perfbench {

struct Instruments {
  Ledger& ledger;
  acn::obs::Tracer* tracer = nullptr;  // null = untraced run

  bool traced() const noexcept { return tracer != nullptr; }
};

/// CPU time of the calling thread, in ns.
std::uint64_t thread_cpu_ns() noexcept;

class TimedGate final : public acn::SchedulerGate {
 public:
  explicit TimedGate(Instruments& in) : in_(in) {}
  void wrap(acn::SchedulerGate* inner) noexcept { inner_ = inner; }

  void admit(const acn::KeyFootprint& footprint) override;
  void on_full_abort(acn::TxOutcome kind,
                     const std::vector<acn::ir::ObjectKey>& conflict) override {
    inner_->on_full_abort(kind, conflict);
  }
  void finish(acn::TxOutcome outcome) override { inner_->finish(outcome); }
  bool any_hot(const acn::KeyFootprint& footprint) const override {
    return inner_->any_hot(footprint);
  }

 private:
  Instruments& in_;
  acn::SchedulerGate* inner_ = nullptr;
};

class MeasuredSubmitter final : public acn::harness::Submitter {
 public:
  MeasuredSubmitter(std::unique_ptr<acn::harness::Submitter> inner,
                    Instruments& in)
      : inner_(std::move(inner)), in_(in), gate_(in) {}

  /// A transaction whose retries run out (dtm::TxAbort) counts as failed
  /// and is not rethrown, so one failure does not end the run.
  void run(acn::Protocol protocol, const acn::RunOptions& options,
           const std::vector<acn::ir::Record>& params,
           acn::ExecStats& stats) override;

 private:
  void run_traced(acn::Protocol protocol, const acn::RunOptions& options,
                  const std::vector<acn::ir::Record>& params,
                  acn::ExecStats& stats);

  std::unique_ptr<acn::harness::Submitter> inner_;
  Instruments& in_;
  TimedGate gate_;
};

/// Wraps the fleet's factory so every client submits through a
/// MeasuredSubmitter.
acn::harness::SubmitterFactory measured_factory(
    acn::harness::SubmitterFactory inner, Instruments& in);

class TimedLane final : public acn::shard::Lane {
 public:
  TimedLane(std::shared_ptr<acn::shard::Lane> inner, Instruments& in)
      : inner_(std::move(inner)), in_(in) {}

  acn::shard::LaneOutcome submit(const acn::ir::TxProgram& program,
                                 const std::vector<acn::ir::Record>& params,
                                 const acn::KeyFootprint& predicted,
                                 acn::ExecStats& stats) override;

 private:
  std::shared_ptr<acn::shard::Lane> inner_;
  Instruments& in_;
};

class TimedSink final : public acn::dtm::DurabilitySink {
 public:
  TimedSink(acn::dtm::DurabilitySink& inner, Instruments& in)
      : inner_(inner), in_(in) {}

  void log_prepare(const acn::dtm::PrepareRequest& prepare) override;
  bool log_commit(const acn::dtm::CommitRequest& commit) override;
  void log_abort(acn::dtm::TxId tx,
                 const std::vector<acn::store::ObjectKey>& keys) override;
  void write_snapshot(
      const std::function<acn::dtm::SnapshotData()>& provide) override;

 private:
  acn::dtm::DurabilitySink& inner_;
  Instruments& in_;
};

/// Re-register every replica's network handler as a timing wrapper around
/// Server::handle, and put a TimedSink in front of every replica's WAL.
/// Call after seeding and before traffic; the returned sinks must outlive
/// the traffic (keep them until the cluster is idle).
std::vector<std::unique_ptr<TimedSink>> instrument_servers(
    acn::harness::Cluster& cluster, Instruments& in);

/// Handler time of the most recent instrumented request on this thread.
std::uint64_t last_handler_ns() noexcept;

}  // namespace perfbench
