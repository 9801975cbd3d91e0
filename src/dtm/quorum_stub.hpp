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
//   * phase_one / phase_two / release: two-phase commit over one write
//     quorum per group — the same nodes must see prepare, then commit or
//     abort, so phase one returns a ticket binding each group's chosen
//     quorum.  Each takes one part per quorum group and runs every round
//     of its phase as ONE multicall over all the groups (a coordinator's
//     per-group stubs share the client's transport and node id);
//     prepare/validate/commit/abort are the one-group case;
//   * contention: fetch per-class contention levels for the Dynamic Module,
//     either stand-alone or piggybacked on reads.
// read, read_many and phase one all climb one shared retry ladder:
// transient busy replies back off and retry, unreachable quorums re-select
// around the down nodes, each rung has its own cap, and an optional
// wall-clock deadline (op_deadline) bounds the whole climb so a faulted
// network cannot stall a transaction past its budget.  Phase one never
// backs off holding a grant: a rung that finds a group busy or unreachable
// first releases everything the rung acquired.
//
// Phase two re-sends to members whose ack was lost (dropped request or
// response leg) — servers acknowledge replays idempotently — and converts a
// lease-expired verdict into TxAbort so the executor retries the
// transaction from scratch (presumed abort).  A refused prepare releases
// only the members that granted it or whose reply was lost: a replica that
// refused undid its own protections before answering.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <span>

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

/// One quorum round's verdict, as the shared retry ladder sees it.
enum class RoundStatus {
  kDone,         // finished; the round captured its result
  kBusy,         // transient busy replies: back off and retry
  kUnreachable,  // quorum not (fully) reachable: re-select and retry
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

/// One group's prepare, built once and sent in every rung of its ladder:
/// the PrepareRequest and, per write key, the version the transaction read
/// (0 for blind inserts) so new versions advance past both the replicas'
/// and the reader's view.
struct PrepareCall {
  Request request;
  std::vector<Version> read_versions;  // aligned with the write keys
};

class QuorumStub;

/// One quorum group's share of a commit's phase one: the group's stub, the
/// prepare of the transaction's writes there (none when it writes nothing
/// there), and the checks of the reads it did not write there.
struct PreparePart {
  QuorumStub* stub = nullptr;
  TxId tx = 0;
  std::optional<PrepareCall> call;
  std::vector<VersionCheck> unwritten;
};

/// One group's share of phase two or of a release: the stub of the group
/// that granted `ticket` and, for phase two, the values to install (aligned
/// with ticket->keys).
struct HeldPart {
  QuorumStub* stub = nullptr;
  const PrepareTicket* ticket = nullptr;
  const std::vector<Record>* values = nullptr;
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

  /// Phase one of a commit, one part per quorum group, as ONE retry ladder.
  /// Each rung prepares every part that writes in one round; when there are
  /// several parts, or none writes, it then validates every part's
  /// unwritten reads in one more round while every grant is held (Silo's
  /// lock-then-validate order: of two transactions that each read what the
  /// other writes, one finds the other's protection; on one group the
  /// prepare validated them under its own protections already).  A
  /// validation failure or a replica of another group releases, in one
  /// round, every grant and every member a refused prepare may still hold,
  /// and throws TxAbort.  A busy or unreachable group releases the same
  /// way before the rung backs off (busy) or re-picks the quorums
  /// (unreachable), so the ladder never waits holding a grant; when it runs
  /// out, TxAbort(kBusy / kUnavailable) names the write keys of the groups
  /// whose prepares kept it climbing.  Returns each part's ticket (none for
  /// a part that writes nothing).  The first part's stub supplies the
  /// transport, the retry policy and the obs bundle; each part's stub picks
  /// its own group's quorums.
  static std::vector<std::optional<PrepareTicket>> phase_one(
      std::span<const PreparePart> parts);

  /// Phase two: install each part's values in ONE round to every ticket's
  /// quorum, then replay to each group's members whose ack was lost, up to
  /// max_commit_replays rounds (servers treat replays idempotently).
  /// Returns each part's outcome: null, or what commit() would throw for
  /// it — TxAbort(kBusy) if a member reports the prepare lease expired
  /// (presumed abort — the write did not take effect there and must not be
  /// assumed durable), TxAbort(kUnavailable) if not a single member ever
  /// acknowledged.  A partial ack set otherwise counts as success: the
  /// quorum's version guard converges stragglers on the next write, and
  /// reads take the max version.  The replay loop is additionally bounded
  /// by op_deadline, so a faulted network yields a classified TxAbort
  /// instead of an open-ended stall.
  static std::vector<std::exception_ptr> phase_two(
      std::span<const HeldPart> parts);

  /// Release every part's prepared-but-not-committed ticket in ONE round,
  /// replaying to unacked members.
  static void release(std::span<const HeldPart> parts);

  // -- the one-group case ---------------------------------------------------
  /// Stand-alone validation; throws TxAbort(kValidation) when any replica
  /// refutes a check.
  void validate(TxId tx, const std::vector<VersionCheck>& checks);

  /// Phase one of one group.  `write_keys` must be sorted ascending;
  /// `read_versions` gives, per write key, the version the transaction read
  /// (0 for blind inserts).  Throws TxAbort on conflict.
  PrepareTicket prepare(TxId tx, const std::vector<VersionCheck>& read_checks,
                        const std::vector<ObjectKey>& write_keys,
                        const std::vector<Version>& read_versions,
                        const PrepareExtras& extras = {});

  /// Phase two of one group: install values (aligned with ticket.keys);
  /// throws what phase_two() reports.
  void commit(const PrepareTicket& ticket, const std::vector<Record>& values);

  /// Release a prepared-but-not-committed transaction.
  void abort(const PrepareTicket& ticket);

  /// The prepare a PreparePart carries: `write_keys` sorted, `read_versions`
  /// as for prepare(), stamped with this stub's group.
  PrepareCall prepare_call(TxId tx,
                           const std::vector<VersionCheck>& read_checks,
                           const std::vector<ObjectKey>& write_keys,
                           const std::vector<Version>& read_versions,
                           const PrepareExtras& extras = {}) const;

  /// Dynamic Module query: per-class contention levels (max over a write
  /// quorum — counters diverge across replicas because each sees only the
  /// commits of quorums it belonged to; the root, part of every write
  /// quorum, sees them all).
  std::vector<std::uint64_t> contention_levels(const std::vector<ClassId>& classes);

  net::NodeId client_node() const noexcept { return client_node_; }

 private:
  /// One group's share of a round: the quorum it targets and the request
  /// every member of it gets (owned by the caller, alive through the round).
  struct RoundPart {
    std::vector<net::NodeId> quorum;
    const Request* request = nullptr;
  };
  using Replies = std::span<const net::CallResult<Response>>;

  /// The retry ladder every quorum operation climbs: invokes `round` until
  /// it reports kDone, backing off on kBusy (up to retry.max_retries, then
  /// TxAbort{kBusy}) and re-selecting quorums on kUnreachable (up to
  /// max_quorum_retries, then TxAbort{kUnavailable}); either abort lists
  /// `blame` as it stands then.  Rounds throw TxAbort(kValidation)/
  /// ObjectMissing directly.
  void retry_ladder(const std::vector<ObjectKey>& blame,
                    const std::function<RoundStatus()>& round);

  /// multicall + optional codec verification of request and responses.
  std::vector<net::CallResult<Response>> exchange(
      const std::vector<net::NodeId>& quorum, const Request& request);
  /// Every part in ONE multicall through this stub's transport as its
  /// client node, with the codec check; each part's replies, aligned with
  /// its quorum.
  std::vector<std::vector<net::CallResult<Response>>> exchange(
      std::span<const RoundPart> parts);
  void verify_responses(
      const std::vector<net::CallResult<Response>>& results) const;
  void backoff(int attempt);
  /// Phase two from its first round's `replies`: replays `request` to the
  /// members whose ack was lost and throws what commit() throws.
  void settle_commit(const PrepareTicket& ticket, const Request& request,
                     Replies replies);
  /// A release from its first round's `replies` (to `members`): replays to
  /// the members whose ack was lost.
  void settle_release(const std::vector<net::NodeId>& members,
                      const Request& request, Replies replies);

  std::vector<net::NodeId> pick_read_quorum() { return quorums_.read_quorum(rng_); }
  std::vector<net::NodeId> pick_write_quorum() { return quorums_.write_quorum(rng_); }

  DtmTransport* transport_;
  const quorum::QuorumSystem& quorums_;
  net::NodeId client_node_;
  Rng rng_;
  StubConfig config_;
};

}  // namespace acn::dtm
