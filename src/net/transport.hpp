// Transport: the abstract request/reply surface between stubs and replicas.
//
// Every client-side component (QuorumStub, the cross-shard coordinator, the
// in-doubt resolver, chaos) used to talk straight to the simulated
// net::Network.  The Transport interface extracts exactly the surface they
// consume — call / multicall, local handler registration, and the fault
// knobs — so the same stack runs over two implementations:
//
//   * SimTransport (below, header-only): a thin adapter over the existing
//     deterministic Network.  Default for tests and chaos matrices — the
//     sleep-injecting simulation is what makes fault injection
//     reproducible.
//   * transport::TcpTransport (src/transport): real asynchronous TCP —
//     non-blocking sockets on an epoll loop, CRC-framed codec messages,
//     per-connection write queues, request-id correlation, reconnect with
//     backoff.  Replicas run as separate cluster_main processes.
//
// Semantics both implementations honor:
//   * multicall sends the SAME request to every target and returns results
//     aligned with `targets`.  (The simulated network accepts a per-target
//     request factory; every caller in the tree builds an identical request
//     per target, so the narrower surface loses nothing and lets TCP encode
//     the frame once.)
//   * A handler registered through register_local must not issue nested
//     calls through the transport (see network.hpp — enforced there, and
//     the TCP loop would deadlock; identical contract on both).
//   * Fault knobs are best effort on TCP: node_down / partitions fail fast
//     client-side and kill live connections; drop probability is rolled per
//     leg client-side (a request-leg drop is simply never written, a
//     response-leg drop is discarded after arrival — same lost-ack hazard
//     as the simulation).  Listener-level suspension (the server refusing
//     the world, not one client refusing the server) is a control-plane
//     operation owned by harness::Cluster::crash_node.
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
#include <vector>

#include "src/net/network.hpp"

namespace acn::net {

/// Wire-level counters shared by every Transport implementation.
struct TransportCounters {
  std::atomic<std::uint64_t> bytes_sent{0};
  std::atomic<std::uint64_t> bytes_recv{0};
  /// Successful connection establishments beyond the first per peer (TCP);
  /// always 0 on the simulated transport — there is nothing to re-dial.
  std::atomic<std::uint64_t> reconnects{0};
  /// Frames rejected for a CRC mismatch or an oversized length prefix.
  std::atomic<std::uint64_t> frames_corrupt{0};
};

template <class Req, class Res>
class Transport {
 public:
  using Handler = std::function<Res(NodeId from, const Req&)>;

  virtual ~Transport() = default;

  /// Synchronous RPC from `from` to `to`.
  virtual CallResult<Res> call(NodeId from, NodeId to, const Req& req) = 0;

  /// Concurrent RPC of the SAME request to all `targets`; results align
  /// with `targets`.  The caller waits for the slowest reply (or its
  /// deadline) once, like a quorum client that fires and gathers.
  virtual std::vector<CallResult<Res>> multicall(
      NodeId from, const std::vector<NodeId>& targets, const Req& req) = 0;

  /// Register a handler served locally by this endpoint (e.g. a cross-shard
  /// coordinator answering DecisionQuery on its client node id).  On TCP a
  /// call addressed to a local id loops back in-process; remote processes
  /// reach it through the caller's listening socket only when one exists —
  /// in this tree, decision queries are always issued by the harness
  /// process that owns the coordinator, so loopback suffices.
  virtual void register_local(NodeId id, Handler handler) = 0;

  // -- Fault surface (chaos plans route through these) --------------------
  virtual void set_node_down(NodeId id, bool down) = 0;
  virtual bool node_down(NodeId id) const = 0;
  virtual void set_drop_probability(double p) = 0;
  virtual double drop_probability() const = 0;
  virtual void set_extra_latency(Nanos extra) = 0;
  virtual Nanos extra_latency() const = 0;
  virtual void set_partition(const std::vector<std::vector<NodeId>>& groups) = 0;
  virtual void clear_partition() = 0;
  virtual bool partitioned() const = 0;
  virtual void set_link_fault(NodeId from, NodeId to, LinkFault fault) = 0;
  virtual void clear_link_fault(NodeId from, NodeId to) = 0;
  virtual void clear_link_faults() = 0;

  virtual const TransportCounters& counters() const = 0;
};

/// Adapter: the deterministic simulated network behind the Transport
/// interface.  Owns nothing — the Network (and the registered servers)
/// outlive it, exactly as they outlive the stubs today.
template <class Req, class Res>
class SimTransport final : public Transport<Req, Res> {
 public:
  using Handler = typename Transport<Req, Res>::Handler;

  explicit SimTransport(Network<Req, Res>& network) : network_(network) {}

  CallResult<Res> call(NodeId from, NodeId to, const Req& req) override {
    CallResult<Res> out = network_.call(from, to, req);
    account(req, out);
    return out;
  }

  std::vector<CallResult<Res>> multicall(NodeId from,
                                         const std::vector<NodeId>& targets,
                                         const Req& req) override {
    auto out = network_.multicall(from, targets,
                                  [&](NodeId) -> const Req& { return req; });
    for (const auto& r : out) account(req, r);
    return out;
  }

  void register_local(NodeId id, Handler handler) override {
    network_.register_node(id, std::move(handler));
  }

  void set_node_down(NodeId id, bool down) override {
    network_.set_node_down(id, down);
  }
  bool node_down(NodeId id) const override { return network_.node_down(id); }
  void set_drop_probability(double p) override {
    network_.set_drop_probability(p);
  }
  double drop_probability() const override {
    return network_.drop_probability();
  }
  void set_extra_latency(Nanos extra) override {
    network_.set_extra_latency(extra);
  }
  Nanos extra_latency() const override { return network_.extra_latency(); }
  void set_partition(const std::vector<std::vector<NodeId>>& groups) override {
    network_.set_partition(groups);
  }
  void clear_partition() override { network_.clear_partition(); }
  bool partitioned() const override { return network_.partitioned(); }
  void set_link_fault(NodeId from, NodeId to, LinkFault fault) override {
    network_.set_link_fault(from, to, fault);
  }
  void clear_link_fault(NodeId from, NodeId to) override {
    network_.clear_link_fault(from, to);
  }
  void clear_link_faults() override { network_.clear_link_faults(); }

  const TransportCounters& counters() const override { return counters_; }

  Network<Req, Res>& network() noexcept { return network_; }

 private:
  // Approximate the wire bytes a real transport would move: the request
  // leg unless the node refused it outright, the response leg on success.
  void account(const Req& req, const CallResult<Res>& result) {
    if (result.error == NetErrorCode::kNodeDown ||
        result.error == NetErrorCode::kPartitioned)
      return;
    counters_.bytes_sent.fetch_add(req.approx_size(),
                                   std::memory_order_relaxed);
    if (result.ok())
      counters_.bytes_recv.fetch_add(result.response.approx_size(),
                                     std::memory_order_relaxed);
  }

  Network<Req, Res>& network_;
  TransportCounters counters_;
};

}  // namespace acn::net
