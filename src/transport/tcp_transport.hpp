// Real asynchronous TCP implementation of net::Transport.
//
// One TcpTransport instance is the harness process's endpoint into a fleet
// of cluster_main replicas.  A single epoll IO thread owns every
// connection.  Each peer has two, both FrameStreams (src/transport/
// frame.hpp): a data connection for dtm traffic and a control connection
// for the management plane.  The IO thread dials and serves both:
//
//   * connections dial on demand (first call to a peer) as non-blocking
//     connects; an eventfd wakes the loop when a caller queues frames for
//     a peer that has no connection;
//   * each connection has one write queue; frames append and flush as the
//     socket allows, so concurrent callers' requests interleave at frame
//     granularity, never mid-frame;
//   * replies correlate back to callers by the request id carried in the
//     frame envelope — any number of calls (and multicalls) to any peers
//     stay in flight simultaneously;
//   * a data call that sees no response within call_timeout returns
//     kDropped, exactly how the simulation surfaces a timeout: QuorumStub's
//     RetryPolicy / op_deadline ladder works unmodified on both;
//   * a connection failure fails that connection's in-flight calls with
//     kDropped (outcome unknown — the lost-ack hazard) and clears its
//     queue; the next call re-dials, after an exponential backoff (2 ms
//     doubling up to 128 ms) if the dial itself failed.  Data-plane re-dials
//     of a peer that worked before count in transport.reconnects.
//
// Faults come from the net::FaultModel every net::Transport carries — the
// same model, and the same per-request fate, as the simulation: a down
// node or a partition fails the call fast, a request-leg drop never writes
// the frame, a response-leg drop discards the arrived reply, and extra
// latency sleeps the caller.  TcpTransport adds only the socket reactions:
// set_node_down and set_partition also kill the live data connections they
// now block.  Listener-side suspension (the replica refusing the world) is
// driven separately through the control plane — see
// harness::Cluster::crash_node.
//
// The control plane never consults the fault model, so the harness can
// manage (seed, dump, crash, restart, probe) replicas that the data plane
// currently treats as dead.  control() queues a kControl frame on the
// peer's control connection and waits on the same pending-call slot as a
// data call, for up to 10 s (checkpoints fsync and dumps ship whole
// stores).  A per-peer mutex keeps one control round trip in flight per
// peer.  A control call whose connection dies is re-sent once on a fresh
// connection, so the first call after a peer restart gets through.
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
#include "src/transport/wire.hpp"

namespace acn::transport {

struct Endpoint {
  std::string host = "127.0.0.1";
  int port = 0;
};

struct TcpTransportConfig {
  /// Per-call response deadline of the data plane (establishing a
  /// connection counts against it); expiry surfaces as kDropped.
  std::chrono::nanoseconds call_timeout{std::chrono::milliseconds(250)};
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
  TcpTransport(std::map<net::NodeId, Endpoint> peers,
               TcpTransportConfig config);
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
  /// Also kills the live data connection to a node going down, and lifts
  /// its re-dial backoff when it comes back up.
  void set_node_down(net::NodeId id, bool down) override;
  /// Also kills the live data connections the partition now blocks.
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
  std::unique_ptr<Impl> impl_;
};

}  // namespace acn::transport
