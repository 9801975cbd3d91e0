#include "src/dtm/quorum_stub.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

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

/// A judge's reading of one round.  kDone with a refusal is final (a
/// validation failure, or a replica of another group); kBusy and
/// kUnreachable go back on the ladder.
struct Verdict {
  RoundStatus status = RoundStatus::kDone;
  std::optional<TxAbort> refusal;
};

/// A validation round over `replies`.
Verdict judge_validate(std::span<const net::CallResult<Response>> replies) {
  std::vector<ObjectKey> invalid;
  bool any_busy = false;
  std::size_t reachable = 0;
  for (const auto& result : replies) {
    if (!result.ok()) continue;
    ++reachable;
    const auto& res = std::get<ValidateResponse>(result.response.payload);
    merge_invalid(invalid, res.invalid);
    any_busy = any_busy || res.busy;
  }
  Verdict verdict;
  if (!invalid.empty())
    verdict.refusal.emplace(AbortKind::kValidation, std::move(invalid));
  // An unreachable quorum must not pass as "nobody refuted the checks" —
  // re-select until someone actually answers.
  else if (reachable == 0)
    verdict.status = RoundStatus::kUnreachable;
  // Some checked object is protected by an in-flight commit: retry until
  // the commit settles and validation can answer definitively.
  else if (any_busy)
    verdict.status = RoundStatus::kBusy;
  return verdict;
}

/// A prepare round's verdict.  Granted (kDone, no refusal): `ticket` binds
/// the whole quorum.  Otherwise `ticket` names the members a release must
/// reach — those that answered kOk or whose reply was lost — and may be
/// empty.
struct PrepareVerdict : Verdict {
  PrepareTicket ticket;
  bool granted() const noexcept {
    return status == RoundStatus::kDone && !refusal;
  }
};

/// `call`'s round on `quorum`: granted when every member granted.
PrepareVerdict judge_prepare(
    const PrepareCall& call, const std::vector<net::NodeId>& quorum,
    std::span<const net::CallResult<Response>> replies) {
  const auto& req = std::get<PrepareRequest>(call.request.payload);
  const std::vector<ObjectKey>& write_keys = req.write_keys;
  std::vector<ObjectKey> invalid;
  bool any_busy = false;
  bool any_wrong_group = false;
  std::vector<Version> current(write_keys.size(), 0);
  std::size_t ok_count = 0;
  PrepareVerdict verdict;
  PrepareTicket& ticket = verdict.ticket;
  ticket.tx = req.tx;
  ticket.keys = write_keys;

  for (std::size_t i = 0; i < replies.size(); ++i) {
    const auto& result = replies[i];
    if (!result.ok()) {
      // A lost reply may hide a grant; a refused or partitioned request
      // reached no one.
      if (result.error == net::NetErrorCode::kDropped)
        ticket.quorum.push_back(quorum[i]);
      continue;
    }
    const auto& res = std::get<PrepareResponse>(result.response.payload);
    switch (res.code) {
      case PrepareCode::kOk:
        ++ok_count;
        ticket.quorum.push_back(quorum[i]);
        for (std::size_t k = 0; k < res.current_versions.size(); ++k)
          current[k] = std::max(current[k], res.current_versions[k]);
        break;
      // A refusing replica undid its own protections before answering.
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

  if (ok_count == replies.size()) {
    ticket.new_versions.reserve(write_keys.size());
    for (std::size_t k = 0; k < write_keys.size(); ++k) {
      const Version floor_version = std::max(
          current[k],
          k < call.read_versions.size() ? call.read_versions[k] : 0);
      ticket.new_versions.push_back(floor_version + 1);
    }
    return verdict;
  }
  // A wrong-group refusal is deterministic (the replica's group is fixed),
  // so retrying the quorum cannot help — fail the operation.
  if (any_wrong_group)
    verdict.refusal.emplace(AbortKind::kUnavailable, write_keys);
  else if (!invalid.empty())
    verdict.refusal.emplace(AbortKind::kValidation, std::move(invalid));
  // A partly-down write quorum is not fatal: another write quorum that
  // avoids the down nodes may exist, so re-select like read() does.
  else
    verdict.status = any_busy ? RoundStatus::kBusy : RoundStatus::kUnreachable;
  return verdict;
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
  verify_responses(results);
  return results;
}

void QuorumStub::verify_responses(
    const std::vector<net::CallResult<Response>>& results) const {
  if (!config_.verify_codec) return;
  for (const auto& result : results) {
    if (!result.ok()) continue;
    if (!(roundtrip(result.response) == result.response))
      throw std::logic_error("codec round-trip mismatch on response");
  }
}

std::vector<std::vector<net::CallResult<Response>>> QuorumStub::exchange(
    std::span<const RoundPart> parts) {
  std::vector<std::vector<net::CallResult<Response>>> out;
  if (parts.empty()) return out;
  std::vector<net::NodeId> targets;
  std::vector<const Request*> requests;
  for (const RoundPart& part : parts) {
    if (config_.verify_codec && !(roundtrip(*part.request) == *part.request))
      throw std::logic_error("codec round-trip mismatch on request");
    targets.insert(targets.end(), part.quorum.begin(), part.quorum.end());
    requests.insert(requests.end(), part.quorum.size(), part.request);
  }
  auto results = transport_->multicall(client_node_, targets, requests);
  verify_responses(results);
  out.reserve(parts.size());
  auto next = std::make_move_iterator(results.begin());
  for (const RoundPart& part : parts) {
    const auto count = static_cast<std::ptrdiff_t>(part.quorum.size());
    out.emplace_back(next, next + count);
    next += count;
  }
  return out;
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

std::vector<std::optional<PrepareTicket>> QuorumStub::phase_one(
    std::span<const PreparePart> parts) {
  std::vector<std::optional<PrepareTicket>> tickets(parts.size());
  std::vector<std::size_t> writers;  // the parts prepared
  for (std::size_t i = 0; i < parts.size(); ++i)
    if (parts[i].call) writers.push_back(i);
  // The unwritten reads are validated across several groups, or when
  // nothing is written (see the header).
  std::vector<std::size_t> checked;  // the parts validated
  std::vector<Request> validations;  // aligned with `checked`
  if (parts.size() > 1 || writers.empty())
    for (std::size_t i = 0; i < parts.size(); ++i)
      if (!parts[i].unwritten.empty()) {
        checked.push_back(i);
        validations.push_back(
            {ValidateRequest{parts[i].tx, parts[i].unwritten}});
      }
  if (writers.empty() && checked.empty()) return tickets;

  QuorumStub& lead = *parts.front().stub;
  obs::Observability* o = lead.config_.obs;
  obs::Tracer::Span span;
  obs::ScopedLatency latency;
  if (o != nullptr) {
    const bool writes = !writers.empty();
    o->rpc_prepares.add(writers.size());
    span.restart(&o->tracer, writes ? "rpc.prepare" : "rpc.validate",
                 writes ? "2pc" : "rpc", parts.front().tx, "groups",
                 static_cast<std::int64_t>(parts.size()));
    latency.arm(o->rpc_prepare_ns, writers.size());
  }
  bool validated = false;
  std::vector<ObjectKey> blame;  // write keys of the groups a rung must retry
  lead.retry_ladder(blame, [&]() -> RoundStatus {
    RoundStatus status = RoundStatus::kDone;
    std::optional<TxAbort> refusal;
    const auto judge = [&](Verdict verdict) {
      if (verdict.refusal) {
        if (!refusal) refusal = std::move(verdict.refusal);
      } else if (verdict.status == RoundStatus::kBusy ||
                 status == RoundStatus::kDone) {
        status = verdict.status;  // a busy group outranks an unreachable one
      }
    };

    // Prepare every part that writes, in one round.
    std::vector<RoundPart> round;
    for (const std::size_t w : writers)
      round.push_back(
          {parts[w].stub->pick_write_quorum(), &parts[w].call->request});
    const auto prepared = lead.exchange(round);
    // What the refused prepares may hold: the members that granted, or
    // whose reply was lost.
    std::vector<PrepareTicket> loose;
    std::vector<HeldPart> held;
    loose.reserve(writers.size());
    blame.clear();
    for (std::size_t r = 0; r < writers.size(); ++r) {
      const PreparePart& part = parts[writers[r]];
      PrepareVerdict verdict =
          judge_prepare(*part.call, round[r].quorum, prepared[r]);
      if (verdict.granted()) {
        tickets[writers[r]] = std::move(verdict.ticket);
        continue;
      }
      if (!verdict.refusal)
        blame.insert(blame.end(), verdict.ticket.keys.begin(),
                     verdict.ticket.keys.end());
      loose.push_back(std::move(verdict.ticket));
      held.push_back({part.stub, &loose.back()});
      judge(std::move(verdict));
    }

    // Then, every grant held, validate the unwritten reads in one more.
    if (!refusal && status == RoundStatus::kDone && !checked.empty()) {
      if (o != nullptr && !validated) o->rpc_validates.add(checked.size());
      validated = true;
      round.clear();
      for (std::size_t c = 0; c < checked.size(); ++c)
        round.push_back(
            {parts[checked[c]].stub->pick_read_quorum(), &validations[c]});
      for (const auto& replies : lead.exchange(round))
        judge(judge_validate(replies));
    }
    if (!refusal && status == RoundStatus::kDone) return RoundStatus::kDone;

    // A failed rung holds nothing past this point: the grants go with what
    // the refused prepares may hold, in one round.
    for (std::size_t i = 0; i < parts.size(); ++i)
      if (tickets[i]) held.push_back({parts[i].stub, &*tickets[i]});
    release(held);
    for (auto& ticket : tickets) ticket.reset();
    if (refusal) throw std::move(*refusal);
    return status;
  });
  return tickets;
}

std::vector<std::exception_ptr> QuorumStub::phase_two(
    std::span<const HeldPart> parts) {
  std::vector<std::exception_ptr> outcomes(parts.size());
  if (parts.empty()) return outcomes;
  QuorumStub& lead = *parts.front().stub;
  obs::Observability* o = lead.config_.obs;
  obs::Tracer::Span span;
  const std::uint64_t start = now_ns();
  if (o != nullptr) {
    o->rpc_commits.add(parts.size());
    span.restart(&o->tracer, "rpc.commit", "2pc", parts.front().ticket->tx,
                 "groups", static_cast<std::int64_t>(parts.size()));
  }
  std::vector<Request> requests;
  requests.reserve(parts.size());
  std::vector<RoundPart> round;
  for (const HeldPart& part : parts) {
    const PrepareTicket& ticket = *part.ticket;
    requests.push_back({CommitRequest{ticket.tx, ticket.keys, *part.values,
                                      ticket.new_versions,
                                      part.stub->config_.group}});
    round.push_back({ticket.quorum, &requests.back()});
  }
  const auto replies = lead.exchange(round);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    try {
      parts[i].stub->settle_commit(*parts[i].ticket, requests[i], replies[i]);
    } catch (...) {
      outcomes[i] = std::current_exception();
    }
    if (o != nullptr) o->rpc_commit_ns.observe(now_ns() - start);
  }
  return outcomes;
}

void QuorumStub::release(std::span<const HeldPart> parts) {
  std::vector<Request> requests;
  requests.reserve(parts.size());
  std::vector<RoundPart> round;
  std::vector<QuorumStub*> stubs;
  for (const HeldPart& part : parts) {
    if (part.ticket->quorum.empty()) continue;
    requests.push_back({AbortRequest{part.ticket->tx, part.ticket->keys}});
    round.push_back({part.ticket->quorum, &requests.back()});
    stubs.push_back(part.stub);
  }
  if (round.empty()) return;
  if (obs::Observability* o = stubs.front()->config_.obs)
    o->rpc_aborts.add(round.size());
  const auto replies = stubs.front()->exchange(round);
  for (std::size_t i = 0; i < round.size(); ++i)
    stubs[i]->settle_release(round[i].quorum, requests[i], replies[i]);
}

void QuorumStub::validate(TxId tx, const std::vector<VersionCheck>& checks) {
  const PreparePart part{this, tx, std::nullopt, checks};
  phase_one({&part, 1});
}

PrepareTicket QuorumStub::prepare(TxId tx,
                                  const std::vector<VersionCheck>& read_checks,
                                  const std::vector<ObjectKey>& write_keys,
                                  const std::vector<Version>& read_versions,
                                  const PrepareExtras& extras) {
  const PreparePart part{
      this, tx,
      prepare_call(tx, read_checks, write_keys, read_versions, extras), {}};
  return std::move(*phase_one({&part, 1}).front());
}

void QuorumStub::commit(const PrepareTicket& ticket,
                        const std::vector<Record>& values) {
  const HeldPart part{this, &ticket, &values};
  if (const std::exception_ptr failure = phase_two({&part, 1}).front())
    std::rethrow_exception(failure);
}

void QuorumStub::abort(const PrepareTicket& ticket) {
  const HeldPart part{this, &ticket};
  release({&part, 1});
}

PrepareCall QuorumStub::prepare_call(
    TxId tx, const std::vector<VersionCheck>& read_checks,
    const std::vector<ObjectKey>& write_keys,
    const std::vector<Version>& read_versions,
    const PrepareExtras& extras) const {
  PrepareRequest prepare_req{tx, read_checks, write_keys, config_.group};
  prepare_req.participants = extras.participants;
  prepare_req.coordinator = extras.coordinator;
  prepare_req.values = extras.values;
  PrepareCall call;
  call.request.payload = std::move(prepare_req);
  call.read_versions = read_versions;
  return call;
}

void QuorumStub::settle_commit(const PrepareTicket& ticket,
                               const Request& request, Replies replies) {
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
  std::vector<net::CallResult<Response>> replayed;
  std::size_t acked = 0;
  bool expired = false;
  for (int attempt = 0;; ++attempt) {
    std::vector<net::NodeId> still_pending;
    for (std::size_t i = 0; i < replies.size(); ++i) {
      if (!replies[i].ok()) {
        still_pending.push_back(pending[i]);
        continue;
      }
      const auto& res = std::get<CommitResponse>(replies[i].response.payload);
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
    replayed = exchange(pending, request);
    replies = replayed;
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

void QuorumStub::settle_release(const std::vector<net::NodeId>& members,
                                const Request& request, Replies replies) {
  // Aborts must be delivered as reliably as commits: a dropped abort leaves
  // the keys protected on that member until the prepare lease expires, and
  // on hot keys that stall every later prepare for the whole lease.  Replay
  // to unacked members (unprotect is idempotent); give up after the replay
  // budget or op_deadline — lease expiry is the backstop, and a down
  // member's protection cannot block anyone while it is down.
  const std::uint64_t deadline_ns =
      static_cast<std::uint64_t>(config_.op_deadline.count());
  Stopwatch watch;
  std::vector<net::NodeId> pending = members;
  std::vector<net::CallResult<Response>> replayed;
  for (int attempt = 0;; ++attempt) {
    std::vector<net::NodeId> still_pending;
    for (std::size_t i = 0; i < replies.size(); ++i)
      if (!replies[i].ok()) still_pending.push_back(pending[i]);
    pending = std::move(still_pending);
    if (pending.empty() || attempt >= config_.max_commit_replays ||
        (deadline_ns > 0 && watch.elapsed_ns() >= deadline_ns))
      return;
    replayed = exchange(pending, request);
    replies = replayed;
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
