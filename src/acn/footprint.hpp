// Predicted key footprints and the scheduler gate the executor talks to.
//
// The contention-aware scheduler (src/sched) wants to know, *before* a
// transaction touches the network, which object keys it is going to access
// — so transactions that touch hot keys can be held back by admission, or
// routed to the deterministic epoch lane, instead of racing to abort each
// other.  The prediction comes from the same static analysis the
// decomposition framework already runs: a remote access whose key function
// depends only on transaction parameters (key_deps ⊆ params, the
// UnitGraph's read-set entries with no produced inputs) has a key that is
// computable at submission time.  Keys produced
// mid-transaction (pointer chases, TPC-C order lines keyed by a fetched
// counter) are invisible to the prediction; the scheduler stays correct
// because admission is an optimization — optimistic concurrency control
// still validates everything — just blind to those keys.
//
// The SchedulerGate is the inversion that keeps the layering acyclic
// (net → dtm → nesting/acn → sched → harness): the executor calls an
// abstract gate, src/sched implements it, the harness wires the two
// together.  Mirrors how dtm::DurabilitySink breaks the dtm → wal cycle.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/acn/txir.hpp"
#include "src/dtm/abort.hpp"

namespace acn {

struct FootprintEntry {
  ir::ObjectKey key;
  bool for_write = false;
};

/// Canonically ordered (ascending key), deduplicated predicted footprint;
/// a key read and written appears once with for_write = true.
using KeyFootprint = std::vector<FootprintEntry>;

/// Evaluate the statically predictable footprint of one execution of
/// `program` with `params` bound: every remote access whose key_deps are
/// all parameters.  Key functions of such ops are pure over params, so no
/// transaction is needed.
KeyFootprint predicted_footprint(const ir::TxProgram& program,
                                 const std::vector<ir::Record>& params);

/// The distinct shards `footprint` touches under the keyspace partitioning
/// `shard_of` (sorted ascending, deduplicated).  This is the shard router's
/// input: a one-element result makes the transaction a single-shard
/// candidate.  The partitioning is passed as a callable so this layer stays
/// independent of src/shard (same inversion as SchedulerGate below);
/// shard::ShardMap supplies the real one.  Like the footprint itself the
/// answer is a *prediction* — keys produced mid-transaction are invisible —
/// so the router must re-classify against the keys actually touched before
/// committing, never trust this alone.
std::vector<std::uint32_t> shards_touched(
    const KeyFootprint& footprint,
    const std::function<std::uint32_t(const ir::ObjectKey&)>& shard_of);

/// How a transaction attempt (or the whole transaction) ended, as the
/// executor reports it to the gate.  kLeaseExpired is kBusy's stronger
/// cousin: a full two-phase commit died to a reclaimed prepare lease.
enum class TxOutcome {
  kCommitted,
  kValidation,
  kBusy,
  kUnavailable,
  kLeaseExpired,
};

/// The TxOutcome a TxAbort reports to the gate.  Shared by every execution
/// path that feeds the scheduler (an Executor over one group's stub or over
/// a cross-shard coordinator), so 2PC aborts classify identically to local
/// ones.
TxOutcome outcome_of(const dtm::TxAbort& abort) noexcept;

/// What one Executor::run call tells the scheduler.  Implementations must
/// be thread-compatible per session: the executor owns one gate per client
/// thread and calls it strictly admit → on_full_abort* → finish.
class SchedulerGate {
 public:
  virtual ~SchedulerGate() = default;

  /// Declare the predicted footprint and block until the transaction may
  /// start (the admission window has room).
  virtual void admit(const KeyFootprint& footprint) = 0;

  /// One full abort inside the executor's retry loop: `conflict` lists the
  /// invalidated keys when known (empty for busy/unavailable aborts).  The
  /// transaction keeps its admission slot for the retry.
  virtual void on_full_abort(TxOutcome kind,
                             const std::vector<ir::ObjectKey>& conflict) = 0;

  /// The run ended (commit, or the final abort re-thrown to the caller);
  /// releases the admission slot.  Must tolerate being called without a
  /// preceding admit (it is then a no-op).
  virtual void finish(TxOutcome outcome) = 0;

  /// Whether any footprint entry is currently hot, per the gate's
  /// contention view.  Advisory (must not block): the sharded client uses
  /// it to route hot-footprint transactions to the deterministic epoch
  /// lane in hybrid mode.  The default — nothing is ever hot — keeps
  /// gate-less and test gates routing everything optimistically.
  virtual bool any_hot(const KeyFootprint& footprint) const {
    (void)footprint;
    return false;
  }
};

}  // namespace acn
