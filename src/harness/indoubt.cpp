#include "src/harness/indoubt.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <variant>
#include <vector>

#include "src/common/clock.hpp"
#include "src/common/rng.hpp"

namespace acn::harness {
namespace {

using dtm::DecisionCode;
using dtm::DecisionQuery;
using dtm::DecisionReply;

/// One bounded RPC: retry transport failures up to `retry.max_retries`
/// times within `op_deadline`, then give up with the last error.  Replies
/// that are not a DecisionReply (e.g. an unregistered default response)
/// count as failures too.
struct BoundedCaller {
  Cluster& cluster;
  const IndoubtOptions& options;
  Rng rng{0x1D0B7};
  std::size_t queries = 0;

  bool query(net::NodeId from, net::NodeId to, const DecisionQuery& what,
             DecisionReply& reply) {
    const std::uint64_t deadline_ns =
        static_cast<std::uint64_t>(options.op_deadline.count());
    Stopwatch watch;
    dtm::Request request;
    request.payload = what;
    for (int attempt = 0;; ++attempt) {
      ++queries;
      const auto result = cluster.transport().call(from, to, request);
      if (result.ok()) {
        const auto* answer =
            std::get_if<DecisionReply>(&result.response.payload);
        if (answer != nullptr) {
          reply = *answer;
          return true;
        }
        return false;  // peer exists but does not speak DecisionReply
      }
      if (attempt >= options.retry.max_retries ||
          (deadline_ns > 0 && watch.elapsed_ns() >= deadline_ns))
        return false;
      precise_sleep_for(options.retry.delay(attempt, rng));
    }
  }

  /// Deliver `request` to every node in `targets`, retrying transport
  /// failures per node under the same bounds.  Best-effort: handlers are
  /// idempotent, and lease expiry re-parks whatever a drop misses.
  void push(net::NodeId from, const std::vector<net::NodeId>& targets,
            const dtm::Request& request) {
    const std::uint64_t deadline_ns =
        static_cast<std::uint64_t>(options.op_deadline.count());
    Stopwatch watch;
    std::vector<net::NodeId> pending = targets;
    for (int attempt = 0;; ++attempt) {
      const auto results = cluster.transport().multicall(from, pending, request);
      std::vector<net::NodeId> still_pending;
      for (std::size_t i = 0; i < results.size(); ++i)
        if (!results[i].ok()) still_pending.push_back(pending[i]);
      pending = std::move(still_pending);
      if (pending.empty() || attempt >= options.retry.max_retries ||
          (deadline_ns > 0 && watch.elapsed_ns() >= deadline_ns))
        return;
      precise_sleep_for(options.retry.delay(attempt, rng));
    }
  }
};

}  // namespace

IndoubtReport resolve_indoubt(Cluster& cluster,
                              const IndoubtOptions& options) {
  IndoubtReport report;
  BoundedCaller caller{cluster, options};
  const net::NodeId self =
      static_cast<net::NodeId>(cluster.size()) + options.client_ordinal;

  // Collect the parked transactions, one entry per (tx, group) — every
  // write-quorum member of a group parks the same tx, and the terminating
  // push goes to the whole group anyway.
  struct ParkedGroup {
    std::uint32_t group = 0;
    dtm::InDoubtTx info;
  };
  std::map<dtm::TxId, std::vector<ParkedGroup>> parked;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const std::uint32_t group =
        cluster.group_of(static_cast<net::NodeId>(i));
    for (auto& tx : cluster.indoubt_transactions(i)) {
      auto& groups = parked[tx.tx];
      const bool seen = std::any_of(
          groups.begin(), groups.end(),
          [&](const ParkedGroup& p) { return p.group == group; });
      if (!seen) groups.push_back({group, std::move(tx)});
    }
  }

  for (auto& [tx, groups] : parked) {
    // Step 1: the coordinator's decision record — authoritative when the
    // node answers, including kUnknown (no record on a live coordinator
    // means no group was ever told to commit: presumed abort).
    const std::int64_t coordinator = groups.front().info.coordinator;
    bool know_outcome = false;
    bool commit = false;
    std::unordered_map<std::uint32_t, DecisionReply> coordinator_pushes;
    if (coordinator >= 0) {
      bool reached_all = true;
      for (const ParkedGroup& pg : groups) {
        DecisionReply reply;
        if (!caller.query(self, static_cast<net::NodeId>(coordinator),
                          DecisionQuery{tx, pg.group}, reply)) {
          reached_all = false;
          break;
        }
        know_outcome = true;
        commit = reply.code == DecisionCode::kCommitted;
        if (commit) coordinator_pushes[pg.group] = std::move(reply);
      }
      if (!reached_all) {
        know_outcome = false;
        coordinator_pushes.clear();
      }
    }

    // Step 2: sibling participant groups, when the coordinator is dead.  A
    // kCommitted/kAborted memory on ANY replica of ANY participant is
    // authoritative; kInDoubt and kUnknown decide nothing.
    if (!know_outcome) {
      std::vector<std::uint32_t> participants =
          groups.front().info.participants;
      for (const std::uint32_t g : participants) {
        if (know_outcome) break;
        for (const net::NodeId node : cluster.group_members(g)) {
          DecisionReply reply;
          if (!caller.query(self, node, DecisionQuery{tx, g}, reply))
            continue;
          if (reply.code == DecisionCode::kCommitted) {
            know_outcome = true;
            commit = true;
            break;
          }
          if (reply.code == DecisionCode::kAborted) {
            know_outcome = true;
            commit = false;
            break;
          }
        }
      }
    }

    if (!know_outcome) {
      // Every participant merely prepared and the coordinator is
      // unreachable: a commit record may exist behind the crash, so the
      // transaction must stay parked until the coordinator node heals.
      report.unresolved += groups.size();
      continue;
    }

    for (const ParkedGroup& pg : groups) {
      const auto members = cluster.group_members(pg.group);
      if (!commit) {
        dtm::Request request;
        request.payload = dtm::AbortRequest{tx, pg.info.keys};
        caller.push(self, members, request);
        ++report.resolved_abort;
        continue;
      }
      // Commit: prefer the coordinator's exact recorded push; fall back to
      // the in-doubt replica's own redo payload + locally-proposed versions
      // (value-identical to the coordinator's push, version-guarded so
      // replicas converge).
      dtm::CommitRequest push;
      const auto from_record = coordinator_pushes.find(pg.group);
      if (from_record != coordinator_pushes.end() &&
          !from_record->second.keys.empty()) {
        push = {tx, from_record->second.keys, from_record->second.values,
                from_record->second.versions, pg.group};
      } else {
        DecisionReply local;
        bool have_local = false;
        for (const net::NodeId node : members) {
          if (caller.query(self, node, DecisionQuery{tx, pg.group}, local) &&
              local.code == DecisionCode::kInDoubt) {
            have_local = true;
            break;
          }
        }
        if (!have_local) {
          // The group's replicas are unreachable; leave it parked for the
          // next resolve pass.
          ++report.unresolved;
          continue;
        }
        push = {tx, local.keys, local.values, local.versions, pg.group};
      }
      dtm::Request request;
      request.payload = push;
      caller.push(self, members, request);
      ++report.resolved_commit;
    }
  }

  report.queries = caller.queries;
  return report;
}

}  // namespace acn::harness
