// Real asynchronous TCP implementation of net::Transport.
//
// One TcpTransport instance is the harness process's endpoint into a fleet
// of cluster_main replicas.  A single epoll IO thread owns every data
// connection:
//
//   * connections dial on demand (first call to a peer) as non-blocking
//     connects; an eventfd wakes the loop whenever a caller queues frames;
//   * each peer has one write queue; frames append and flush as EPOLLOUT
//     allows, so concurrent callers' requests interleave at frame
//     granularity, never mid-frame;
//   * responses correlate back to callers by the request id carried in the
//     frame envelope — any number of calls (and multicalls) to any peers
//     stay in flight simultaneously;
//   * a call that sees no response within its deadline returns kDropped,
//     exactly how the simulation surfaces a timeout: QuorumStub's
//     RetryPolicy / op_deadline ladder works unmodified on both;
//   * a connection failure fails that peer's in-flight calls with kDropped
//     (outcome unknown — the lost-ack hazard) and clears its queue; the
//     next call re-dials, subject to exponential backoff, bumping
//     transport.reconnects when a previously-working peer comes back.
//
// Faults come from the net::FaultModel every net::Transport carries — the
// same model, and the same per-request fate, as the simulation: a down
// node or a partition fails the call fast, a request-leg drop never writes
// the frame, a response-leg drop discards the arrived reply, and extra
// latency sleeps the caller.  TcpTransport adds only the socket reactions:
// set_node_down and set_partition also kill the live connections they now
// block.  Listener-side suspension (the replica refusing the world) is
// driven separately through the control plane — see
// harness::Cluster::crash_node.
//
// The control plane rides one SEPARATE blocking connection per peer,
// serialized by a per-peer mutex and immune to the fault knobs, so the
// harness can manage (seed, dump, crash, restart, probe) replicas that the
// data plane currently treats as dead.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/dtm/quorum_stub.hpp"
#include "src/transport/frame.hpp"
#include "src/transport/wire.hpp"

namespace acn::transport {

struct Endpoint {
  std::string host = "127.0.0.1";
  int port = 0;
};

struct TcpTransportConfig {
  /// Per-call response deadline; expiry surfaces as kDropped.
  std::chrono::nanoseconds call_timeout{std::chrono::milliseconds(250)};
  /// Establishing a connection counts against the calls waiting on it.
  std::chrono::nanoseconds connect_timeout{std::chrono::seconds(1)};
  /// Re-dial backoff after a failed connect: base * 2^attempt, capped.
  std::chrono::nanoseconds reconnect_base{std::chrono::milliseconds(2)};
  int reconnect_max_doublings = 6;
  /// Control-plane round-trip budget (blocking; generous — checkpoints
  /// fsync and dumps ship whole stores).
  std::chrono::nanoseconds control_timeout{std::chrono::seconds(10)};
  std::size_t max_frame = kMaxFramePayload;
};

/// Thrown by harness::Cluster's control path when a replica is
/// unreachable, times out, or reports an error.
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what)
      : std::runtime_error(what) {}
};

class TcpTransport final : public dtm::DtmTransport {
 public:
  TcpTransport(std::map<net::NodeId, Endpoint> peers, TcpTransportConfig config,
               std::uint64_t seed);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  // -- net::Transport -----------------------------------------------------
  net::CallResult<dtm::Response> call(net::NodeId from, net::NodeId to,
                                      const dtm::Request& req) override;
  std::vector<net::CallResult<dtm::Response>> multicall(
      net::NodeId from, const std::vector<net::NodeId>& targets,
      const dtm::Request& req) override;
  /// Serves `id` locally: calls addressed to it loop back in-process.
  void register_node(net::NodeId id, Handler handler) override;

  // -- socket reactions to faults -------------------------------------------
  /// Also kills the live connection to a node going down, and lifts its
  /// re-dial backoff when it comes back up.
  void set_node_down(net::NodeId id, bool down) override;
  /// Also kills the live connections the partition now blocks.
  void set_partition(
      const std::vector<std::vector<net::NodeId>>& groups) override;

  // -- control plane ------------------------------------------------------
  /// Round-trip one management op to `to`; nullopt when the peer is
  /// unreachable or times out.  A reply the peer marks !ok still returns
  /// (harness::Cluster::control turns both into a TransportError).
  std::optional<ControlReply> control(net::NodeId to,
                                      const ControlRequest& req);

  /// Close every connection and stop the IO thread (idempotent; the
  /// destructor calls it).  In-flight calls fail with kDropped.
  void close();

 private:
  struct Impl;
  std::map<net::NodeId, Endpoint> peers_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace acn::transport
