// Simulated message-passing network: the sim implementation of
// net::Transport.
//
// The cluster in this reproduction runs inside one process: server nodes are
// passive, thread-safe request handlers and client threads issue RPCs through
// a Network<Request, Response> instance.  The network
//   * injects one-way latency from a pluggable LatencyModel on the request
//     and the response leg;
//   * runs every RPC as a *round*: call() is a round with one target,
//     multicall() a round that contacts several nodes concurrently, each
//     with its own request (one quorum, or several groups' quorums);
//   * accounts messages and bytes (requests/responses expose approx_size())
//     in its NetStats, and approximate wire bytes in the Transport's
//     TransportCounters;
//   * injects the faults of the Transport's net::FaultModel (faults.hpp):
//     down nodes, global and per-link drops on either leg, extra latency and
//     symmetric partition groups.
//
// Round timing.  A round starts at t0, runs each reachable target's handler
// inline at send, and then waits once, until the absolute deadline
//
//     t0 + max over delivered targets of (request leg + that target's own
//                                         handler time + reply leg),
//
// which is when the slowest reply of replicas answering in parallel would
// arrive (the TCP transport's replicas do answer in parallel).  The caller
// pays the slowest round trip once, never the sum.  Handler time counts
// only for targets with a delayed leg, and a round whose delivered legs
// are all zero never sleeps.  The wait goes through acn::precise_sleep_until
// (src/common/clock.hpp), which drops the calling thread's timer slack to
// 1 ns on first use: Linux's default 50 us slack would stretch a 25 us leg
// to about 80 us.  NetStats counts the rounds that inject delay with their
// requested (deadline - t0) and actual (wake-up - t0) waits, so every run
// can report how faithful its latency was.
//
// Faults in a round: a response-leg drop surfaces as kDropped to the caller
// even though the handler executed, and the caller still waits out the
// round trip of the lost reply; a request-leg drop, a down node or a
// partition fails fast and adds nothing to the round's deadline.
//
// Handlers execute on the calling thread, in target order.  This keeps the
// simulation deterministic under a fixed seed and free of cross-thread
// queue latency noise, while preserving real mutual exclusion inside the
// server objects.
//
// Re-entrancy contract: a request handler must NOT issue nested call() /
// multicall() invocations.  On this simulated network a nested call would
// "work" (it runs inline on the same thread), but on a real transport the
// handler executes on the server's event-loop or worker thread, where a
// nested synchronous RPC deadlocks or reorders arbitrarily.  So that both
// transports expose identical semantics, the network wraps every
// registered handler in the thread-local depth guard of transport.hpp and
// throws std::logic_error when call()/multicall() is entered from inside
// one.
#pragma once

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/clock.hpp"
#include "src/common/latency_model.hpp"
#include "src/net/net_stats.hpp"
#include "src/net/transport.hpp"

namespace acn::net {

template <class Req, class Res>
class Network final : public Transport<Req, Res> {
 public:
  using Handler = typename Transport<Req, Res>::Handler;

  explicit Network(std::shared_ptr<const LatencyModel> latency =
                       std::make_shared<ZeroLatency>())
      : latency_(std::move(latency)) {}

  /// Register node `id`'s request handler (executed inline on the calling
  /// thread) and mark it up.  Must happen before traffic to `id` flows:
  /// call() and multicall() read the handler table without a lock.  Fault
  /// injectors may run concurrently — set_node_down() and node_down()
  /// share handler_mutex_ with this call, which can grow (and so move) the
  /// table.
  void register_node(NodeId id, Handler handler) override {
    std::lock_guard lock(handler_mutex_);
    if (static_cast<std::size_t>(id) >= handlers_.size())
      handlers_.resize(static_cast<std::size_t>(id) + 1);
    handlers_[static_cast<std::size_t>(id)] =
        std::make_unique<const Handler>(guarded(std::move(handler)));
    this->faults_.set_node_down(id, false);
  }

  /// Throws std::invalid_argument for an id no register_node() call ever
  /// named, so a bench with a bad victim list fails with a message instead
  /// of silently faulting a node that does not exist.
  void set_node_down(NodeId id, bool down) override {
    require_known(id, "set_node_down");
    this->faults_.set_node_down(id, down);
  }
  bool node_down(NodeId id) const override {
    require_known(id, "node_down");
    return this->faults_.node_down(id);
  }

  /// Synchronous RPC from `from` to `to`: a round with one target.
  CallResult<Res> call(NodeId from, NodeId to, const Req& req) override {
    require_not_in_handler("call");
    Round round;
    CallResult<Res> out;
    send(round, from, to, req, out);
    finish(round);
    return out;
  }

  /// One round: handlers run inline in target order and the caller waits
  /// once, for the slowest round trip; results align with `targets`.
  using Transport<Req, Res>::multicall;
  std::vector<CallResult<Res>> multicall(
      NodeId from, const std::vector<NodeId>& targets,
      std::span<const Req* const> requests) override {
    require_not_in_handler("multicall");
    require_request_per_target(targets.size(), requests.size());
    Round round;
    std::vector<CallResult<Res>> out(targets.size());
    for (std::size_t i = 0; i < targets.size(); ++i)
      send(round, from, targets[i], *requests[i], out[i]);
    finish(round);
    return out;
  }

  NetStats& stats() noexcept { return stats_; }
  const NetStats& stats() const noexcept { return stats_; }
  const LatencyModel& latency_model() const noexcept { return *latency_; }

 private:
  using Clock = SteadyClock;

  /// One RPC round: when it started, and when its slowest reply so far
  /// arrives, measured from that start (see the header comment).
  struct Round {
    Clock::time_point t0 = Clock::now();
    Nanos slowest{0};  // stays 0 unless a delivered target has a delayed leg
  };

  /// Deliver one request of `round`: its fate, the handler (inline, at
  /// send), and the target's arrival time.  TransportCounters count the
  /// request leg unless the node refused it outright, the response leg on
  /// success.
  void send(Round& round, NodeId from, NodeId to, const Req& req,
            CallResult<Res>& out) {
    const Handler* handler = handler_of(to);
    const Fate fate =
        handler != nullptr ? this->faults_.fate(from, to)
                           : Fate{NetErrorCode::kNodeDown};
    if (fate.error == NetErrorCode::kNodeDown) {
      out.error = fate.error;
      stats_.on_refused();
      return;
    }
    if (fate.error == NetErrorCode::kPartitioned) {
      out.error = fate.error;
      stats_.on_partitioned();
      return;
    }
    const std::size_t req_bytes = req.approx_size();
    this->counters_.bytes_sent.fetch_add(req_bytes, std::memory_order_relaxed);
    if (fate.error == NetErrorCode::kDropped) {
      out.error = fate.error;
      stats_.on_drop();
      return;
    }
    stats_.on_message(req_bytes);
    const Nanos fwd = latency_->delay(from, to, req_bytes) + fate.extra_out;
    Nanos handler_time{0};
    if (fwd + fate.extra_back > Nanos{0}) {
      const auto start = Clock::now();
      out.response = (*handler)(from, req);
      handler_time = Clock::now() - start;
    } else {
      out.response = (*handler)(from, req);
    }
    const std::size_t res_bytes = out.response.approx_size();
    const Nanos back = latency_->delay(to, from, res_bytes) + fate.extra_back;
    if (fwd + back > Nanos{0})
      round.slowest = std::max(round.slowest, fwd + handler_time + back);
    if (fate.reply_dropped) {
      // Lost ack: the handler already ran, only the response vanished.  The
      // caller still waits for a reply that never comes and must treat the
      // outcome as unknown.
      out.error = NetErrorCode::kDropped;
      out.response = Res{};
      stats_.on_response_drop();
      return;
    }
    stats_.on_message(res_bytes);
    this->counters_.bytes_recv.fetch_add(res_bytes, std::memory_order_relaxed);
  }

  /// Wait until the round's deadline, once, and count the wait.
  void finish(const Round& round) {
    if (round.slowest == Nanos{0}) return;
    const auto deadline = round.t0 + round.slowest;
    auto wake = Clock::now();
    if (wake < deadline) {
      precise_sleep_until(deadline);
      wake = Clock::now();
    }
    stats_.on_delay(static_cast<std::uint64_t>(round.slowest.count()),
                    static_cast<std::uint64_t>(
                        std::chrono::duration_cast<Nanos>(wake - round.t0)
                            .count()));
  }

  static Handler guarded(Handler handler) {
    return [h = std::move(handler)](NodeId from, const Req& req) -> Res {
      HandlerScope scope;
      return h(from, req);
    };
  }

  void require_known(NodeId id, const char* op) const {
    std::lock_guard lock(handler_mutex_);
    if (id < 0 || static_cast<std::size_t>(id) >= handlers_.size())
      throw std::invalid_argument(std::string("Network::") + op +
                                  ": unknown node id " + std::to_string(id));
  }

  /// `to`'s handler, or null when no node registered that id.
  const Handler* handler_of(NodeId to) const noexcept {
    const auto idx = static_cast<std::size_t>(to);
    return idx < handlers_.size() ? handlers_[idx].get() : nullptr;
  }

  std::shared_ptr<const LatencyModel> latency_;
  // Held by register_node / set_node_down / node_down, never per message.
  mutable std::mutex handler_mutex_;
  // Indexed by node id.  Ids are sparse (an epoch lane's coordinator sits
  // at n + 0x5EE0), so an unregistered id costs one null pointer, not an
  // empty std::function.
  std::vector<std::unique_ptr<const Handler>> handlers_;
  NetStats stats_;
};

}  // namespace acn::net
