// Simulated message-passing network.
//
// The cluster in this reproduction runs inside one process: server nodes are
// passive, thread-safe request handlers and client threads issue RPCs through
// a Network<Request, Response> instance.  The network
//   * injects one-way latency from a pluggable LatencyModel on the request
//     and the response leg;
//   * runs every RPC as a *round*: call() is a round with one target,
//     multicall() a quorum round that contacts several nodes concurrently;
//   * accounts messages and bytes (requests/responses expose approx_size());
//   * injects faults: a node can be marked down, messages can be dropped
//     with a global probability, and — layered on top — per-link drop
//     probability / extra latency and symmetric partition groups.
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
// Fault model details:
//   * Drops are rolled independently on the request AND the response leg.
//     A response-leg drop surfaces as kDropped to the caller even though
//     the handler executed — the lost-ack hazard two-phase commit must
//     survive (see src/dtm prepare leases).  The caller still waits out the
//     round trip of a lost reply; a request-leg drop, a down node or a
//     partition fails fast and adds nothing to the round's deadline.
//   * A partition splits nodes into groups; messages cross groups only by
//     failing with kPartitioned.  Nodes not named in any group (typically
//     clients) belong to the first group, so `{{}, {8, 9}}` isolates nodes
//     8 and 9 from the clients and the rest of the cluster.
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
// nested synchronous RPC deadlocks or reorders arbitrarily.  So that
// SimTransport and TcpTransport expose identical semantics, the network
// wraps every registered handler in a thread-local depth guard and throws
// std::logic_error when call()/multicall() is entered from inside one.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/clock.hpp"
#include "src/common/latency_model.hpp"
#include "src/common/rng.hpp"
#include "src/net/net_stats.hpp"

namespace acn::net {

using NodeId = int;

enum class NetErrorCode {
  kOk = 0,
  kNodeDown,
  kDropped,
  kNoHandler,
  kPartitioned,  // sender and receiver sit in different partition groups
};

/// Result of a single RPC: either a response or a transport error.
template <class Res>
struct CallResult {
  NetErrorCode error = NetErrorCode::kOk;
  Res response{};

  bool ok() const noexcept { return error == NetErrorCode::kOk; }
};

/// Per-link fault state, layered over the global drop knob: an extra drop
/// probability (combined independently with the global one) and added
/// one-way latency for messages travelling this direction of the link.
struct LinkFault {
  double drop = 0.0;
  Nanos extra_latency{0};
};

/// Depth of request-handler execution on the current thread, shared by all
/// Network instances and by transports that invoke local handlers inline
/// (net::Transport::register_local).  Nonzero means "we are inside a
/// handler": issuing an RPC from here is the re-entrancy hazard a real
/// transport cannot honor, so entry points reject it.
inline thread_local int handler_depth = 0;

/// RAII depth bump wrapped around every handler invocation.
struct HandlerScope {
  HandlerScope() noexcept { ++handler_depth; }
  ~HandlerScope() { --handler_depth; }
  HandlerScope(const HandlerScope&) = delete;
  HandlerScope& operator=(const HandlerScope&) = delete;
};

/// Throws std::logic_error when invoked from inside a request handler.
inline void require_not_in_handler(const char* op) {
  if (handler_depth > 0)
    throw std::logic_error(
        std::string("net: nested RPC: ") + op +
        " invoked from inside a request handler.  Handlers must not call "
        "back into the transport — on a real transport this deadlocks the "
        "server's event loop (see network.hpp re-entrancy contract).");
}

template <class Req, class Res>
class Network {
 public:
  using Handler = std::function<Res(NodeId from, const Req&)>;

  explicit Network(std::shared_ptr<const LatencyModel> latency =
                       std::make_shared<ZeroLatency>())
      : latency_(std::move(latency)) {}

  /// Register node `id`'s request handler (executed inline on the calling
  /// thread).  Must happen before traffic to `id` flows: call() and
  /// multicall() read the node table without a lock.  Fault injectors may
  /// run concurrently — set_node_down() and node_down() share node_mutex_
  /// with this call, which can grow (and so move) the table.
  void register_node(NodeId id, Handler handler) {
    std::lock_guard lock(node_mutex_);
    auto& node = node_slot(id);
    node.handler = guarded(std::move(handler));
    node.down.store(false);
  }

  /// Fault injection: mark a node unreachable / reachable.  Throws
  /// std::invalid_argument for an id no register_node() call ever named, so
  /// a bench with a bad victim list fails with a message instead of an
  /// out_of_range from deep inside the container.
  void set_node_down(NodeId id, bool down) {
    std::lock_guard lock(node_mutex_);
    require_known(id, "set_node_down");
    nodes_[static_cast<std::size_t>(id)].down.store(down);
  }
  bool node_down(NodeId id) const {
    std::lock_guard lock(node_mutex_);
    require_known(id, "node_down");
    return nodes_[static_cast<std::size_t>(id)].down.load();
  }

  /// Fault injection: probability in [0,1] that any message is dropped
  /// (a dropped message surfaces as NetErrorCode::kDropped to the caller,
  /// standing in for an RPC timeout).  Request and response legs roll
  /// independently.
  void set_drop_probability(double p) { drop_probability_.store(p); }
  double drop_probability() const noexcept { return drop_probability_.load(); }

  /// Fault injection: extra one-way latency added to every message on top
  /// of the LatencyModel (a cluster-wide latency spike).
  void set_extra_latency(Nanos extra) {
    extra_latency_ns_.store(extra.count(), std::memory_order_relaxed);
  }
  Nanos extra_latency() const noexcept {
    return Nanos{extra_latency_ns_.load(std::memory_order_relaxed)};
  }

  /// Fault injection: per-link (directional) drop probability and extra
  /// latency for messages from `from` to `to`.  Layered over the global
  /// knobs: drop probabilities combine as independent events.
  void set_link_fault(NodeId from, NodeId to, LinkFault fault) {
    std::unique_lock lock(fault_mutex_);
    links_[link_key(from, to)] = fault;
    faults_active_.store(true, std::memory_order_release);
  }
  void clear_link_fault(NodeId from, NodeId to) {
    std::unique_lock lock(fault_mutex_);
    links_.erase(link_key(from, to));
    update_faults_active();
  }
  void clear_link_faults() {
    std::unique_lock lock(fault_mutex_);
    links_.clear();
    update_faults_active();
  }

  /// Fault injection: split the network into symmetric partition groups.
  /// `groups[i]` lists the members of group i; any node (including client
  /// ids) not named in any group belongs to group 0.  Messages between
  /// different groups fail with kPartitioned.  Replaces any previous
  /// partition.
  void set_partition(const std::vector<std::vector<NodeId>>& groups) {
    std::unique_lock lock(fault_mutex_);
    groups_.clear();
    for (std::size_t g = 0; g < groups.size(); ++g)
      for (const NodeId id : groups[g]) groups_[id] = static_cast<int>(g);
    partitioned_ = true;
    faults_active_.store(true, std::memory_order_release);
  }
  void clear_partition() {
    std::unique_lock lock(fault_mutex_);
    groups_.clear();
    partitioned_ = false;
    update_faults_active();
  }
  bool partitioned() const {
    std::shared_lock lock(fault_mutex_);
    return partitioned_;
  }

  /// Synchronous RPC from `from` to `to`: a round with one target.
  CallResult<Res> call(NodeId from, NodeId to, const Req& req) {
    require_not_in_handler("call");
    Round round;
    CallResult<Res> out;
    send(round, from, to, [&]() -> const Req& { return req; }, out);
    finish(round);
    return out;
  }

  /// Concurrent RPC to all `targets`.  `make_req(target)` builds the
  /// per-target request (it may return a reference to a shared one).
  /// Handlers run inline in target order and the caller waits once, for
  /// the slowest round trip; results align with `targets`.
  template <class MakeReq>
  std::vector<CallResult<Res>> multicall(NodeId from,
                                         const std::vector<NodeId>& targets,
                                         MakeReq&& make_req) {
    require_not_in_handler("multicall");
    Round round;
    std::vector<CallResult<Res>> out(targets.size());
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const NodeId to = targets[i];
      send(round, from, to, [&]() -> decltype(auto) { return make_req(to); },
           out[i]);
    }
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

  /// Deliver one request of `round`: fault checks, the handler (inline, at
  /// send), the reply leg's fate, and the target's arrival time.
  /// `build()` makes the request only once the target is reachable.
  template <class Build>
  void send(Round& round, NodeId from, NodeId to, Build&& build,
            CallResult<Res>& out) {
    if (!deliverable(to)) {
      out.error = NetErrorCode::kNodeDown;
      stats_.on_refused();
      return;
    }
    if (partition_blocked(from, to)) {
      out.error = NetErrorCode::kPartitioned;
      stats_.on_partitioned();
      return;
    }
    if (maybe_drop(from, to)) {
      out.error = NetErrorCode::kDropped;
      stats_.on_drop();
      return;
    }
    decltype(auto) req = build();
    const std::size_t req_bytes = req.approx_size();
    stats_.on_message(req_bytes);
    const Nanos fwd = latency_->delay(from, to, req_bytes) + leg_extra(from, to);
    const Nanos back_extra = leg_extra(to, from);
    Node& node = nodes_[static_cast<std::size_t>(to)];
    Nanos handler_time{0};
    if (fwd + back_extra > Nanos{0}) {
      const auto start = Clock::now();
      out.response = node.handler(from, req);
      handler_time = Clock::now() - start;
    } else {
      out.response = node.handler(from, req);
    }
    const std::size_t res_bytes = out.response.approx_size();
    const Nanos back = latency_->delay(to, from, res_bytes) + back_extra;
    if (fwd + back > Nanos{0})
      round.slowest = std::max(round.slowest, fwd + handler_time + back);
    if (maybe_drop(to, from)) {
      // Lost ack: the handler already ran, only the response vanished.  The
      // caller still waits for a reply that never comes and must treat the
      // outcome as unknown.
      out.error = NetErrorCode::kDropped;
      out.response = Res{};
      stats_.on_response_drop();
      return;
    }
    stats_.on_message(res_bytes);
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

  struct Node {
    Handler handler;
    std::atomic<bool> down{true};

    Node() = default;
    Node(Node&& other) noexcept
        : handler(std::move(other.handler)), down(other.down.load()) {}
    Node& operator=(Node&& other) noexcept {
      handler = std::move(other.handler);
      down.store(other.down.load());
      return *this;
    }
  };

  static Handler guarded(Handler handler) {
    return [h = std::move(handler)](NodeId from, const Req& req) -> Res {
      HandlerScope scope;
      return h(from, req);
    };
  }

  Node& node_slot(NodeId id) {
    if (static_cast<std::size_t>(id) >= nodes_.size())
      nodes_.resize(static_cast<std::size_t>(id) + 1);
    return nodes_[static_cast<std::size_t>(id)];
  }

  void require_known(NodeId id, const char* op) const {
    if (id < 0 || static_cast<std::size_t>(id) >= nodes_.size())
      throw std::invalid_argument(std::string("Network::") + op +
                                  ": unknown node id " + std::to_string(id));
  }

  bool deliverable(NodeId to) const noexcept {
    const auto idx = static_cast<std::size_t>(to);
    return idx < nodes_.size() && nodes_[idx].handler &&
           !nodes_[idx].down.load();
  }

  static std::uint64_t link_key(NodeId from, NodeId to) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
           static_cast<std::uint32_t>(to);
  }

  // Caller must NOT hold fault_mutex_.  True when a partition is active and
  // `from` / `to` sit in different groups (unlisted nodes are group 0).
  bool partition_blocked(NodeId from, NodeId to) const {
    if (!faults_active_.load(std::memory_order_acquire)) return false;
    std::shared_lock lock(fault_mutex_);
    if (!partitioned_) return false;
    return group_of(from) != group_of(to);
  }

  // Requires fault_mutex_ (shared) held.
  int group_of(NodeId id) const {
    const auto it = groups_.find(id);
    return it == groups_.end() ? 0 : it->second;
  }

  // Requires fault_mutex_ (unique) held.
  void update_faults_active() {
    faults_active_.store(!links_.empty() || partitioned_,
                         std::memory_order_release);
  }

  // Drop decision for one leg (direction matters for per-link faults).
  bool maybe_drop(NodeId from, NodeId to) noexcept {
    double p = drop_probability_.load(std::memory_order_relaxed);
    if (faults_active_.load(std::memory_order_acquire)) {
      std::shared_lock lock(fault_mutex_);
      const auto it = links_.find(link_key(from, to));
      if (it != links_.end() && it->second.drop > 0.0)
        p = 1.0 - (1.0 - p) * (1.0 - it->second.drop);  // independent drops
    }
    if (p <= 0.0) return false;
    return drop_rng().bernoulli(p);
  }

  Nanos leg_extra(NodeId from, NodeId to) const {
    Nanos extra{extra_latency_ns_.load(std::memory_order_relaxed)};
    if (faults_active_.load(std::memory_order_acquire)) {
      std::shared_lock lock(fault_mutex_);
      const auto it = links_.find(link_key(from, to));
      if (it != links_.end()) extra += it->second.extra_latency;
    }
    return extra;
  }

  // Per-thread drop RNG: every message used to take a process-global mutex
  // here, serialising all client threads on the hot send path.  Each thread
  // now owns a generator seeded deterministically from the order in which
  // threads first send (stable under a fixed seed and thread count).
  static Rng& drop_rng() noexcept {
    static std::atomic<std::uint64_t> next_stream{0};
    thread_local Rng rng = [] {
      std::uint64_t stream =
          0xd40bdeadULL + next_stream.fetch_add(1, std::memory_order_relaxed);
      return Rng(splitmix64(stream));
    }();
    return rng;
  }

  std::shared_ptr<const LatencyModel> latency_;
  // Held by register_node / set_node_down / node_down, never per message.
  mutable std::mutex node_mutex_;
  std::vector<Node> nodes_;
  std::atomic<double> drop_probability_{0.0};
  std::atomic<std::int64_t> extra_latency_ns_{0};

  // Per-link faults + partition groups, read on every message but mutated
  // only by fault injectors; faults_active_ keeps the no-fault hot path
  // lock-free.
  mutable std::shared_mutex fault_mutex_;
  std::unordered_map<std::uint64_t, LinkFault> links_;
  std::unordered_map<NodeId, int> groups_;
  bool partitioned_ = false;
  std::atomic<bool> faults_active_{false};

  NetStats stats_;
};

}  // namespace acn::net
