#include "src/dtm/quorum_stub.hpp"

#include <algorithm>

#include "src/common/clock.hpp"
#include "src/dtm/codec.hpp"

namespace acn::dtm {
namespace {

/// Union of invalid-key lists, deduplicated.
void merge_invalid(std::vector<ObjectKey>& into, const std::vector<ObjectKey>& from) {
  for (const auto& key : from)
    if (std::find(into.begin(), into.end(), key) == into.end())
      into.push_back(key);
}

void merge_contention(std::vector<std::uint64_t>& into,
                      const std::vector<std::uint64_t>& from) {
  if (from.empty()) return;
  if (into.size() < from.size()) into.resize(from.size(), 0);
  for (std::size_t i = 0; i < from.size(); ++i)
    into[i] = std::max(into[i], from[i]);
}

}  // namespace

QuorumStub::QuorumStub(DtmTransport& transport,
                       const quorum::QuorumSystem& quorums,
                       net::NodeId client_node, std::uint64_t seed,
                       StubConfig config)
    : transport_(&transport),
      quorums_(quorums),
      client_node_(client_node),
      rng_(seed),
      config_(config) {}

void QuorumStub::backoff(int attempt) {
  const auto delay = config_.retry.delay(attempt, rng_);
  if (obs::Observability* o = config_.obs)
    o->rpc_busy_backoff_ns.add(static_cast<std::uint64_t>(delay.count()));
  precise_sleep_for(delay);
}

void QuorumStub::retry_ladder(const std::vector<ObjectKey>& blame,
                              const std::function<RoundStatus()>& round) {
  const std::uint64_t deadline_ns =
      static_cast<std::uint64_t>(config_.op_deadline.count());
  Stopwatch watch;
  const auto out_of_time = [&]() noexcept {
    return deadline_ns > 0 && watch.elapsed_ns() >= deadline_ns;
  };
  int busy_attempts = 0;
  int quorum_attempts = 0;
  for (;;) {
    switch (round()) {
      case RoundStatus::kDone:
        return;
      case RoundStatus::kBusy:
        if (++busy_attempts > config_.retry.max_retries || out_of_time())
          throw TxAbort(AbortKind::kBusy, blame);
        backoff(busy_attempts);
        break;
      case RoundStatus::kUnreachable:
        // Re-select; the quorum system routes the next pick around any node
        // the whole cluster knows is down, and random choice handles the rest.
        if (++quorum_attempts > config_.max_quorum_retries || out_of_time())
          throw TxAbort(AbortKind::kUnavailable, blame);
        break;
    }
  }
}

std::vector<net::CallResult<Response>> QuorumStub::exchange(
    const std::vector<net::NodeId>& quorum, const Request& request) {
  if (config_.verify_codec && !(roundtrip(request) == request))
    throw std::logic_error("codec round-trip mismatch on request");
  auto results = transport_->multicall(client_node_, quorum, request);
  if (config_.verify_codec) {
    for (const auto& result : results) {
      if (!result.ok()) continue;
      if (!(roundtrip(result.response) == result.response))
        throw std::logic_error("codec round-trip mismatch on response");
    }
  }
  return results;
}

ReadOutcome QuorumStub::read(TxId tx, const ObjectKey& key,
                             const std::vector<VersionCheck>& validate,
                             const std::vector<ClassId>& want_contention) {
  obs::Tracer::Span span;
  obs::ScopedLatency latency;
  if (obs::Observability* o = config_.obs) {
    o->rpc_reads.add();
    span.restart(&o->tracer, "rpc.read", "rpc", tx, "validated",
                 static_cast<std::int64_t>(validate.size()));
    latency.arm(o->rpc_read_ns);
  }
  ReadOutcome best;
  retry_ladder({key}, [&]() -> RoundStatus {
    const auto quorum = pick_read_quorum();
    Request request;
    request.payload = ReadRequest{tx, key, validate, want_contention};
    const auto results = exchange(quorum, request);

    std::vector<ObjectKey> invalid;
    best = ReadOutcome{};
    bool have_value = false;
    bool any_busy = false;
    bool any_missing = false;
    std::size_t reachable = 0;

    for (const auto& result : results) {
      if (!result.ok()) continue;
      ++reachable;
      const auto& res = std::get<ReadResponse>(result.response.payload);
      switch (res.code) {
        case ReadCode::kInvalid:
          merge_invalid(invalid, res.invalid);
          break;
        case ReadCode::kOk:
          if (!have_value || res.record.version > best.record.version) {
            best.record = res.record;
            have_value = true;
          }
          break;
        case ReadCode::kBusy:
          any_busy = true;
          break;
        case ReadCode::kMissing:
          any_missing = true;
          break;
      }
      merge_contention(best.contention, res.contention);
    }

    if (!invalid.empty()) throw TxAbort(AbortKind::kValidation, invalid);
    if (have_value) return RoundStatus::kDone;
    if (reachable == 0) return RoundStatus::kUnreachable;
    if (any_busy) return RoundStatus::kBusy;
    if (any_missing) throw ObjectMissing(key);
    // Only transport errors on a partially reachable quorum: retry.
    return RoundStatus::kUnreachable;
  });
  return best;
}

BatchedReadOutcome QuorumStub::read_many(
    TxId tx, const std::vector<ObjectKey>& keys,
    const std::vector<VersionCheck>& validate,
    const std::vector<ClassId>& want_contention) {
  if (keys.empty()) return {};
  if (obs::Observability* o = config_.obs)
    o->read_batch_size.observe(keys.size());
  if (keys.size() == 1) {
    // A one-key batch IS a read; keep the single-read wire format so the
    // batched path costs nothing extra when dependencies serialise a block.
    auto one = read(tx, keys.front(), validate, want_contention);
    BatchedReadOutcome out;
    out.records.push_back(std::move(one.record));
    out.contention = std::move(one.contention);
    return out;
  }

  obs::Tracer::Span span;
  obs::ScopedLatency latency;
  if (obs::Observability* o = config_.obs) {
    o->rpc_batched_reads.add();
    span.restart(&o->tracer, "rpc.read_many", "rpc", tx, "keys",
                 static_cast<std::int64_t>(keys.size()));
    latency.arm(o->rpc_read_ns);
  }

  BatchedReadOutcome out;
  retry_ladder(keys, [&]() -> RoundStatus {
    const auto quorum = pick_read_quorum();
    Request request;
    request.payload = BatchedReadRequest{tx, keys, validate, want_contention};
    const auto results = exchange(quorum, request);

    std::vector<ObjectKey> invalid;
    out = BatchedReadOutcome{};
    out.records.resize(keys.size());
    std::vector<char> have(keys.size(), 0);
    std::vector<char> busy(keys.size(), 0);
    std::vector<char> missing(keys.size(), 0);
    std::size_t reachable = 0;

    for (const auto& result : results) {
      if (!result.ok()) continue;
      ++reachable;
      const auto& res = std::get<BatchedReadResponse>(result.response.payload);
      for (std::size_t i = 0; i < res.codes.size() && i < keys.size(); ++i) {
        switch (res.codes[i]) {
          case ReadCode::kInvalid:
            merge_invalid(invalid, res.invalid);
            break;
          case ReadCode::kOk:
            if (!have[i] || res.records[i].version > out.records[i].version) {
              out.records[i] = res.records[i];
              have[i] = 1;
            }
            break;
          case ReadCode::kBusy:
            busy[i] = 1;
            break;
          case ReadCode::kMissing:
            missing[i] = 1;
            break;
        }
      }
      merge_contention(out.contention, res.contention);
    }

    if (!invalid.empty()) throw TxAbort(AbortKind::kValidation, invalid);
    if (reachable == 0) return RoundStatus::kUnreachable;

    // Per-key resolution mirrors read(): a served key is done regardless of
    // what other replicas said about it; an unserved key escalates in the
    // order busy > missing > transport loss.  The whole batch retries as one
    // unit — replaying already-served keys is cheaper than a second round.
    bool any_retry_busy = false;
    bool any_retry_unreachable = false;
    const ObjectKey* missing_key = nullptr;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (have[i]) continue;
      if (busy[i])
        any_retry_busy = true;
      else if (missing[i]) {
        if (missing_key == nullptr) missing_key = &keys[i];
      } else
        any_retry_unreachable = true;
    }
    if (any_retry_busy) return RoundStatus::kBusy;
    if (missing_key != nullptr) throw ObjectMissing(*missing_key);
    if (any_retry_unreachable) return RoundStatus::kUnreachable;
    return RoundStatus::kDone;
  });
  // N keys through one quorum round instead of N sequential rounds.
  if (obs::Observability* o = config_.obs) o->rpcs_saved.add(keys.size() - 1);
  return out;
}

void QuorumStub::validate(TxId tx, const std::vector<VersionCheck>& checks) {
  if (checks.empty()) return;
  obs::Tracer::Span span;
  if (obs::Observability* o = config_.obs) {
    o->rpc_validates.add();
    span.restart(&o->tracer, "rpc.validate", "rpc", tx, "checks",
                 static_cast<std::int64_t>(checks.size()));
  }
  retry_ladder({}, [&]() -> RoundStatus {
    const auto quorum = pick_read_quorum();
    Request request;
    request.payload = ValidateRequest{tx, checks};
    const auto results = exchange(quorum, request);
    std::vector<ObjectKey> invalid;
    bool any_busy = false;
    std::size_t reachable = 0;
    for (const auto& result : results) {
      if (!result.ok()) continue;
      ++reachable;
      const auto& res = std::get<ValidateResponse>(result.response.payload);
      merge_invalid(invalid, res.invalid);
      any_busy = any_busy || res.busy;
    }
    if (!invalid.empty()) throw TxAbort(AbortKind::kValidation, invalid);
    // An unreachable quorum must not pass as "nobody refuted the checks" —
    // re-select until someone actually answers.
    if (reachable == 0) return RoundStatus::kUnreachable;
    // Some checked object is protected by an in-flight commit: retry until
    // the commit settles and validation can answer definitively.
    if (any_busy) return RoundStatus::kBusy;
    return RoundStatus::kDone;
  });
}

PrepareTicket QuorumStub::prepare(TxId tx,
                                  const std::vector<VersionCheck>& read_checks,
                                  const std::vector<ObjectKey>& write_keys,
                                  const std::vector<Version>& read_versions,
                                  const PrepareExtras& extras) {
  obs::Tracer::Span span;
  obs::ScopedLatency latency;
  if (obs::Observability* o = config_.obs) {
    o->rpc_prepares.add();
    span.restart(&o->tracer, "rpc.prepare", "2pc", tx, "writes",
                 static_cast<std::int64_t>(write_keys.size()));
    latency.arm(o->rpc_prepare_ns);
  }
  PrepareTicket ticket;
  retry_ladder(write_keys, [&]() -> RoundStatus {
    const auto quorum = pick_write_quorum();
    Request request;
    PrepareRequest prepare_req{tx, read_checks, write_keys, config_.group};
    prepare_req.participants = extras.participants;
    prepare_req.coordinator = extras.coordinator;
    prepare_req.values = extras.values;
    request.payload = std::move(prepare_req);
    const auto results = exchange(quorum, request);

    std::vector<ObjectKey> invalid;
    bool any_busy = false;
    bool any_unreachable = false;
    bool any_wrong_group = false;
    std::vector<Version> current(write_keys.size(), 0);
    std::size_t ok_count = 0;

    for (const auto& result : results) {
      if (!result.ok()) {
        any_unreachable = true;
        continue;
      }
      const auto& res = std::get<PrepareResponse>(result.response.payload);
      switch (res.code) {
        case PrepareCode::kOk:
          ++ok_count;
          for (std::size_t i = 0; i < res.current_versions.size(); ++i)
            current[i] = std::max(current[i], res.current_versions[i]);
          break;
        case PrepareCode::kBusy:
          any_busy = true;
          break;
        case PrepareCode::kInvalid:
          merge_invalid(invalid, res.invalid);
          break;
        case PrepareCode::kWrongGroup:
          any_wrong_group = true;
          break;
      }
    }

    const bool all_ok = ok_count == results.size() && !any_busy &&
                        !any_unreachable && !any_wrong_group;
    if (!all_ok) {
      // Release whatever protection was acquired anywhere in the quorum.
      send_abort(tx, quorum, write_keys);
      // A wrong-group refusal is deterministic (the replica's group is
      // fixed), so retrying the quorum cannot help — fail the operation.
      if (any_wrong_group) throw TxAbort(AbortKind::kUnavailable, write_keys);
      if (!invalid.empty()) throw TxAbort(AbortKind::kValidation, invalid);
      if (any_busy) return RoundStatus::kBusy;
      // A partly-down write quorum is not fatal: another write quorum that
      // avoids the down nodes may exist, so re-select like read() does.
      return RoundStatus::kUnreachable;
    }

    ticket = PrepareTicket{};
    ticket.tx = tx;
    ticket.quorum = quorum;
    ticket.keys = write_keys;
    ticket.new_versions.reserve(write_keys.size());
    for (std::size_t i = 0; i < write_keys.size(); ++i) {
      const Version floor_version =
          std::max(current[i], i < read_versions.size() ? read_versions[i] : 0);
      ticket.new_versions.push_back(floor_version + 1);
    }
    return RoundStatus::kDone;
  });
  return ticket;
}

void QuorumStub::commit(const PrepareTicket& ticket,
                        const std::vector<Record>& values) {
  obs::Tracer::Span span;
  obs::ScopedLatency latency;
  if (obs::Observability* o = config_.obs) {
    o->rpc_commits.add();
    span.restart(&o->tracer, "rpc.commit", "2pc", ticket.tx, "writes",
                 static_cast<std::int64_t>(ticket.keys.size()));
    latency.arm(o->rpc_commit_ns);
  }
  Request request;
  request.payload = CommitRequest{ticket.tx, ticket.keys, values,
                                  ticket.new_versions, config_.group};

  // Replay phase two to unacked members until everyone answered, a member
  // reports the lease expired, or the replay budget runs out.  Servers ack
  // replays as kDuplicate, so re-sending through a lost request or response
  // leg is safe.  The same op_deadline that bounds the retry ladder bounds
  // this loop: when the budget runs out the partial-ack classification
  // below decides the outcome instead of replaying further.
  const std::uint64_t deadline_ns =
      static_cast<std::uint64_t>(config_.op_deadline.count());
  Stopwatch watch;
  std::vector<net::NodeId> pending = ticket.quorum;
  std::size_t acked = 0;
  bool expired = false;
  for (int attempt = 0;; ++attempt) {
    const auto results = exchange(pending, request);
    std::vector<net::NodeId> still_pending;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok()) {
        still_pending.push_back(pending[i]);
        continue;
      }
      const auto& res = std::get<CommitResponse>(results[i].response.payload);
      if (res.code == CommitCode::kExpired)
        expired = true;
      else
        ++acked;
    }
    pending = std::move(still_pending);
    if (expired || pending.empty() || attempt >= config_.max_commit_replays ||
        (deadline_ns > 0 && watch.elapsed_ns() >= deadline_ns))
      break;
    if (obs::Observability* o = config_.obs)
      o->rpc_commit_replays.add(pending.size());
    backoff(attempt);
  }

  if (expired) {
    // Presumed abort: at least one member reclaimed the prepare lease and
    // refused the install.  The members that did apply stay consistent (the
    // quorum's max-version read rule tolerates stragglers), but this
    // transaction cannot claim durability — surface it as a busy-style
    // abort so the executor re-runs it from scratch.  The kLeaseExpired
    // detail tells the scheduler this was a full 2PC burned, the strongest
    // overload signal its admission window reacts to.
    throw TxAbort(AbortKind::kBusy, ticket.keys, AbortDetail::kLeaseExpired);
  }
  if (acked == 0) throw TxAbort(AbortKind::kUnavailable, ticket.keys);
}

void QuorumStub::abort(const PrepareTicket& ticket) {
  send_abort(ticket.tx, ticket.quorum, ticket.keys);
}

void QuorumStub::send_abort(TxId tx, const std::vector<net::NodeId>& quorum,
                            const std::vector<ObjectKey>& keys) {
  if (obs::Observability* o = config_.obs) o->rpc_aborts.add();
  Request request;
  request.payload = AbortRequest{tx, keys};
  // Aborts must be delivered as reliably as commits: a dropped abort leaves
  // the keys protected on that member until the prepare lease expires, and
  // on hot keys that stall every later prepare for the whole lease.  Replay
  // to unacked members (unprotect is idempotent); give up after the replay
  // budget or op_deadline — lease expiry is the backstop, and a down
  // member's protection cannot block anyone while it is down.
  const std::uint64_t deadline_ns =
      static_cast<std::uint64_t>(config_.op_deadline.count());
  Stopwatch watch;
  std::vector<net::NodeId> pending = quorum;
  for (int attempt = 0;; ++attempt) {
    const auto results = exchange(pending, request);
    std::vector<net::NodeId> still_pending;
    for (std::size_t i = 0; i < results.size(); ++i)
      if (!results[i].ok()) still_pending.push_back(pending[i]);
    pending = std::move(still_pending);
    if (pending.empty() || attempt >= config_.max_commit_replays ||
        (deadline_ns > 0 && watch.elapsed_ns() >= deadline_ns))
      return;
  }
}

std::vector<std::uint64_t> QuorumStub::contention_levels(
    const std::vector<ClassId>& classes) {
  obs::Tracer::Span span;
  if (obs::Observability* o = config_.obs) {
    o->rpc_contention_queries.add();
    span.restart(&o->tracer, "rpc.contention", "rpc", 0, "classes",
                 static_cast<std::int64_t>(classes.size()));
  }
  // Write counters are bumped on write-quorum nodes at commit time, and
  // every write quorum contains the tree root, so querying a *write*
  // quorum (rather than a read quorum, which may be all leaves) always
  // reaches at least one replica with the complete per-window counts.
  const auto quorum = pick_write_quorum();
  Request request;
  request.payload = ContentionRequest{classes};
  const auto results = exchange(quorum, request);
  std::vector<std::uint64_t> levels(classes.size(), 0);
  for (const auto& result : results) {
    if (!result.ok()) continue;
    const auto& res = std::get<ContentionResponse>(result.response.payload);
    for (std::size_t i = 0; i < res.levels.size() && i < levels.size(); ++i)
      levels[i] = std::max(levels[i], res.levels[i]);
  }
  return levels;
}

}  // namespace acn::dtm
