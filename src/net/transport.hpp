// Transport: the abstract request/reply surface between stubs and replicas.
//
// Every client-side component (QuorumStub, the cross-shard coordinator, the
// in-doubt resolver, chaos) talks to the replicas through this interface:
// call / multicall, handler registration, and the fault knobs.  Two
// implementations serve it:
//
//   * net::Network (src/net/network.hpp): the deterministic simulated
//     network, handlers inline on the calling thread.  Default for tests
//     and chaos matrices — the sleep-injecting simulation is what makes
//     fault injection reproducible.
//   * transport::TcpTransport (src/transport): real asynchronous TCP —
//     non-blocking sockets on an epoll loop, CRC-framed codec messages,
//     per-connection write queues, request-id correlation, reconnect with
//     backoff.  Replicas run as separate cluster_main processes.
//
// Semantics both implementations honor:
//   * multicall sends a request per target, all in flight at once, and
//     returns results aligned with `targets`; the caller waits once, for
//     the slowest reply.  Several quorum groups' rounds share one multicall
//     this way (shard::ShardTx's 2PC phases); the same-request form is a
//     thin wrapper over it.
//   * A handler registered through register_node must not issue nested
//     calls through the transport (see the re-entrancy guard below — on
//     TCP the loop would deadlock; identical contract on both).
//   * Faults: the Transport carries one net::FaultModel (faults.hpp), and
//     both implementations ask it for the fate of every request before
//     sending it.  A refused, partitioned or request-leg-dropped call fails
//     fast; a response-leg drop surfaces as kDropped after the handler ran.
//     TcpTransport adds only socket reactions: a node-down or a partition
//     also kills the live connections it now blocks.  Listener-level
//     suspension (the server refusing the world, not one client refusing
//     the server) is a control-plane operation owned by
//     harness::Cluster::crash_node.
//
// Counters: both implementations feed the same TransportCounters, emitted
// as transport.* metrics by the harness.  On TCP they count real socket
// bytes and observed reconnects/corruption; on sim they approximate wire
// bytes from approx_size() so dashboards stay comparable.  Under drop
// injection the two necessarily diverge (a simulated response-leg drop
// still "paid" the bytes); treat fault-window byte counts as indicative.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/net/faults.hpp"

namespace acn::net {

/// Result of a single RPC: either a response or a transport error.
template <class Res>
struct CallResult {
  NetErrorCode error = NetErrorCode::kOk;
  Res response{};

  bool ok() const noexcept { return error == NetErrorCode::kOk; }
};

/// Depth of request-handler execution on the current thread, shared by all
/// transports that invoke handlers inline.  Nonzero means "we are inside a
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
        "server's event loop (see transport.hpp).");
}

/// Wire-level counters shared by every Transport implementation.  On a
/// cache line of their own, like NetStats: every sender writes them.
struct alignas(64) TransportCounters {
  std::atomic<std::uint64_t> bytes_sent{0};
  std::atomic<std::uint64_t> bytes_recv{0};
  /// Successful connection establishments beyond the first per peer (TCP);
  /// always 0 on the simulated transport — there is nothing to re-dial.
  std::atomic<std::uint64_t> reconnects{0};
  /// Frames rejected for a CRC mismatch or an oversized length prefix.
  std::atomic<std::uint64_t> frames_corrupt{0};
};

/// Throws std::invalid_argument unless every target has a request.
inline void require_request_per_target(std::size_t targets,
                                       std::size_t requests) {
  if (targets != requests)
    throw std::invalid_argument(
        "net: multicall with " + std::to_string(targets) + " targets but " +
        std::to_string(requests) + " requests");
}

template <class Req, class Res>
class Transport {
 public:
  using Handler = std::function<Res(NodeId from, const Req&)>;

  virtual ~Transport() = default;

  /// Synchronous RPC from `from` to `to`.
  virtual CallResult<Res> call(NodeId from, NodeId to, const Req& req) = 0;

  /// Concurrent RPC of `*requests[i]` to `targets[i]`; results align with
  /// `targets`.  The caller waits for the slowest reply (or its deadline)
  /// once, like a quorum client that fires and gathers.  Targets may share
  /// a request (one pointer); an implementation that serializes requests
  /// encodes each distinct one once.  Throws std::invalid_argument when the
  /// two lists differ in length.
  virtual std::vector<CallResult<Res>> multicall(
      NodeId from, const std::vector<NodeId>& targets,
      std::span<const Req* const> requests) = 0;

  /// The same request to every target.
  std::vector<CallResult<Res>> multicall(NodeId from,
                                         const std::vector<NodeId>& targets,
                                         const Req& req) {
    const std::vector<const Req*> requests(targets.size(), &req);
    return multicall(from, targets, requests);
  }

  /// Register node `id`'s request handler and mark the node up.  On the
  /// simulation every node is registered this way; on TCP it registers a
  /// handler served locally by this endpoint (e.g. a cross-shard
  /// coordinator answering DecisionQuery on its client node id): a call
  /// addressed to it loops back in-process.
  virtual void register_node(NodeId id, Handler handler) = 0;

  // -- Fault surface (chaos plans route through these) --------------------
  // set_node_down, node_down and set_partition are virtual so that an
  // implementation can check node ids (Network) or react at the socket
  // layer (TcpTransport); the state itself lives in faults_.
  virtual void set_node_down(NodeId id, bool down) {
    faults_.set_node_down(id, down);
  }
  virtual bool node_down(NodeId id) const { return faults_.node_down(id); }
  void set_drop_probability(double p) { faults_.set_drop_probability(p); }
  double drop_probability() const { return faults_.drop_probability(); }
  void set_extra_latency(Nanos extra) { faults_.set_extra_latency(extra); }
  Nanos extra_latency() const { return faults_.extra_latency(); }
  virtual void set_partition(const std::vector<std::vector<NodeId>>& groups) {
    faults_.set_partition(groups);
  }
  void clear_partition() { faults_.clear_partition(); }
  bool partitioned() const { return faults_.partitioned(); }
  void set_link_fault(NodeId from, NodeId to, LinkFault fault) {
    faults_.set_link_fault(from, to, fault);
  }
  void clear_link_fault(NodeId from, NodeId to) {
    faults_.clear_link_fault(from, to);
  }
  void clear_link_faults() { faults_.clear_link_faults(); }

  const TransportCounters& counters() const noexcept { return counters_; }

 protected:
  FaultModel faults_;
  TransportCounters counters_;
};

}  // namespace acn::net
