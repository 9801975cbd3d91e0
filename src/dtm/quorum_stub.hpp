// Client-side quorum I/O.
//
// The stub turns single logical operations (read an object, run two-phase
// commit) into quorum multicalls and merges the per-replica responses:
//   * read: contact a read quorum, keep the highest-version OK reply (the
//     intersection property guarantees it is the latest committed version),
//     surface incremental-validation failures as TxAbort, retry transient
//     "busy" replies with backoff;
//   * read_many: like read for N independent keys in ONE quorum round — the
//     batched path the executor uses when the UnitGraph proves several
//     remote accesses have no data dependency between their keys;
//   * prepare/commit/abort: two-phase commit over one write quorum — the
//     same nodes must see prepare, then commit or abort, so prepare returns
//     a ticket binding the chosen quorum;
//   * contention: fetch per-class contention levels for the Dynamic Module,
//     either stand-alone or piggybacked on reads.
// read, read_many, validate and prepare all climb one shared retry ladder:
// transient busy replies back off and retry, unreachable quorums re-select
// around the down nodes, each rung has its own cap, and an optional
// wall-clock deadline (op_deadline) bounds the whole climb so a faulted
// network cannot stall a transaction past its budget.
//
// commit() re-sends phase two to members whose ack was lost (dropped
// request or response leg) — servers acknowledge replays idempotently — and
// converts a lease-expired verdict into TxAbort so the executor retries the
// transaction from scratch (presumed abort).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>

#include "src/common/retry_policy.hpp"
#include "src/common/rng.hpp"
#include "src/dtm/abort.hpp"
#include "src/dtm/messages.hpp"
#include "src/net/network.hpp"
#include "src/net/transport.hpp"
#include "src/obs/obs.hpp"
#include "src/quorum/quorum_system.hpp"

namespace acn::dtm {

using DtmNetwork = net::Network<Request, Response>;
/// The request/reply surface the stub (and everything above it) runs on —
/// a simulated DtmNetwork, or transport::TcpTransport over sockets.
using DtmTransport = net::Transport<Request, Response>;

struct StubConfig {
  /// Transient-busy retry shape: `retry.max_retries` busy rounds before
  /// surfacing TxAbort{kBusy}, delays from RetryPolicy::delay (base
  /// `retry.base`, doubling `retry.max_doublings` times, full-range
  /// jitter).  Each sleep is recorded in the rpc.busy.backoff_ns counter.
  RetryPolicy retry;
  /// Re-selections of a quorum when nodes are down before giving up.
  int max_quorum_retries = 3;
  /// Wall-clock budget for one quorum operation's whole retry ladder.  When
  /// the budget runs out mid-ladder the operation aborts with the kind the
  /// current rung would eventually reach (kBusy or kUnavailable) instead of
  /// climbing further.  Zero = unlimited (retry counts alone decide).
  std::chrono::nanoseconds op_deadline{0};
  /// Phase-two rounds re-sent to unacked quorum members before concluding
  /// the commit outcome from partial acks.
  int max_commit_replays = 5;
  /// Quorum group this stub addresses (sharded clusters; 0 otherwise).
  /// Stamped into every prepare and commit so a replica from another group
  /// refuses a misrouted 2PC instead of silently serving it.
  std::uint32_t group = 0;
  /// Debug mode: round-trip every outgoing request and incoming response
  /// through the binary wire codec (src/dtm/codec.hpp) and assert equality,
  /// so all traffic doubles as codec coverage.  Throws std::logic_error on
  /// a codec fidelity bug.
  bool verify_codec = false;
  /// When set, every quorum operation records an RPC span (read / prepare /
  /// commit / validate) and bumps the rpc.* counters.  Null = off.
  obs::Observability* obs = nullptr;
};

struct ReadOutcome {
  VersionedRecord record;
  /// Contention levels aligned with the `want_contention` classes passed to
  /// read(), when piggybacking was requested.
  std::vector<std::uint64_t> contention;
};

struct BatchedReadOutcome {
  std::vector<VersionedRecord> records;  // aligned with the requested keys
  std::vector<std::uint64_t> contention;
};

/// Binds a prepared two-phase commit to the quorum that granted it.
struct PrepareTicket {
  TxId tx = 0;
  std::vector<net::NodeId> quorum;
  std::vector<ObjectKey> keys;         // sorted
  std::vector<Version> new_versions;   // aligned with keys
};

/// Cross-shard 2PC metadata stamped into a prepare (defaults on
/// single-group traffic): the write-participant groups, the coordinator's
/// node id, and the redo payload (values aligned with the write keys).
/// Replicas use it to park an orphaned cross-shard prepare in-doubt instead
/// of presuming abort, and to answer DecisionQuery with enough state to
/// finish the install without the coordinator.
struct PrepareExtras {
  std::vector<std::uint32_t> participants;
  std::int64_t coordinator = -1;
  std::vector<Record> values;
};

class QuorumStub {
 public:
  /// `transport` must outlive the stub.
  QuorumStub(DtmTransport& transport, const quorum::QuorumSystem& quorums,
             net::NodeId client_node, std::uint64_t seed,
             StubConfig config = {});

  /// Fetch `key` from a read quorum with incremental validation of
  /// `validate`.  Throws TxAbort(kValidation) listing invalidated keys,
  /// TxAbort(kBusy) after exhausting busy retries, TxAbort(kUnavailable)
  /// when no quorum is reachable, ObjectMissing when no replica has the
  /// object.
  ReadOutcome read(TxId tx, const ObjectKey& key,
                   const std::vector<VersionCheck>& validate,
                   const std::vector<ClassId>& want_contention = {});

  /// Fetch every key in `keys` (deduplicated by the caller) from ONE read
  /// quorum round, with the same incremental validation and the same
  /// busy/unavailable/validation retry ladder as read().  Results align
  /// with `keys`.  Throws exactly what read() throws; ObjectMissing names
  /// the first key no replica holds.
  BatchedReadOutcome read_many(TxId tx, const std::vector<ObjectKey>& keys,
                               const std::vector<VersionCheck>& validate,
                               const std::vector<ClassId>& want_contention = {});

  /// Stand-alone incremental validation; throws TxAbort(kValidation) when
  /// any replica refutes a check.
  void validate(TxId tx, const std::vector<VersionCheck>& checks);

  /// Phase one of commit.  `write_keys` must be sorted ascending;
  /// `read_versions` gives, per write key, the version the transaction read
  /// (0 for blind inserts) so new versions advance past both the replicas'
  /// and the reader's view.  Throws TxAbort on conflict.
  PrepareTicket prepare(TxId tx, const std::vector<VersionCheck>& read_checks,
                        const std::vector<ObjectKey>& write_keys,
                        const std::vector<Version>& read_versions,
                        const PrepareExtras& extras = {});

  /// Phase two: install values (aligned with ticket.keys).  Members whose
  /// ack was lost are retried up to max_commit_replays rounds (servers
  /// treat replays idempotently).  Throws TxAbort(kBusy) if any member
  /// reports the prepare lease expired (presumed abort — the write did not
  /// take effect there and must not be assumed durable), TxAbort(
  /// kUnavailable) if not a single member ever acknowledged.  A partial ack
  /// set otherwise counts as success: the quorum's version guard converges
  /// stragglers on the next write, and reads take the max version.  The
  /// replay loop is additionally bounded by op_deadline, so a faulted
  /// network yields a classified TxAbort instead of an open-ended stall.
  void commit(const PrepareTicket& ticket, const std::vector<Record>& values);

  /// Release a prepared-but-not-committed transaction.
  void abort(const PrepareTicket& ticket);

  /// Dynamic Module query: per-class contention levels (max over a write
  /// quorum — counters diverge across replicas because each sees only the
  /// commits of quorums it belonged to; the root, part of every write
  /// quorum, sees them all).
  std::vector<std::uint64_t> contention_levels(const std::vector<ClassId>& classes);

  net::NodeId client_node() const noexcept { return client_node_; }

 private:
  /// One quorum round's verdict, as seen by the shared retry ladder.
  enum class RoundStatus {
    kDone,         // finished; the round captured its result
    kBusy,         // transient busy replies: back off and retry
    kUnreachable,  // quorum not (fully) reachable: re-select and retry
  };

  /// The retry ladder every quorum operation climbs: invokes `round` until
  /// it reports kDone, backing off on kBusy (up to retry.max_retries, then
  /// TxAbort{kBusy}) and re-selecting quorums on kUnreachable (up to
  /// max_quorum_retries, then TxAbort{kUnavailable}); either abort lists
  /// `blame`.  Rounds throw TxAbort(kValidation)/ObjectMissing directly.
  void retry_ladder(const std::vector<ObjectKey>& blame,
                    const std::function<RoundStatus()>& round);

  std::vector<net::NodeId> pick_read_quorum() { return quorums_.read_quorum(rng_); }
  std::vector<net::NodeId> pick_write_quorum() { return quorums_.write_quorum(rng_); }
  /// multicall + optional codec verification of request and responses.
  std::vector<net::CallResult<Response>> exchange(
      const std::vector<net::NodeId>& quorum, const Request& request);
  void backoff(int attempt);
  void send_abort(TxId tx, const std::vector<net::NodeId>& quorum,
                  const std::vector<ObjectKey>& keys);

  DtmTransport* transport_;
  const quorum::QuorumSystem& quorums_;
  net::NodeId client_node_;
  Rng rng_;
  StubConfig config_;
};

}  // namespace acn::dtm
