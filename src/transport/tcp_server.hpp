// Asynchronous TCP server for a replica process.
//
// One epoll IO thread owns the listening socket and every accepted
// connection, each a FrameStream (src/transport/frame.hpp, the same
// stream TcpTransport dials); a small worker pool executes request
// handlers so a slow handler (fsync in a durable commit) never stalls the
// event loop.  The flow per data request:
//
//   IO thread: FrameStream receive -> envelope -> enqueue job
//   worker:    DataHandler(from, request body) -> response body
//              -> push the kResponse payload (same id) to the outbox
//   IO thread: (eventfd wakeup) frame it onto the connection's write
//              queue, flush as the socket allows
//
// Two planes share the port, split per connection by the hello frame:
//   * data — dtm protocol traffic.  suspend() kills every data connection
//     and refuses new data hellos: the socket-layer form of "this replica
//     is partitioned/crashed" chaos (abl_partition semantics).
//   * control — the harness management surface (src/transport/wire.hpp).
//     Control connections survive suspension, modelling the out-of-band
//     operator path; ControlHandler returns the reply body plus an Action
//     the server applies to itself (suspend / resume / shutdown).
//
// The server is codec-agnostic about bodies: handlers receive and return
// raw body bytes.  A handler signalling failure (nullopt) poisons the
// connection, same as a corrupt frame — the peer re-dials.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/net/transport.hpp"
#include "src/transport/wire.hpp"

namespace acn::transport {

struct TcpServerConfig {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral; read the bound port from port()
  std::size_t workers = 2;
};

/// What the server should do to itself after a control op.
enum class ControlAction : std::uint8_t { kNone, kSuspend, kResume, kShutdown };

struct ControlOutcome {
  std::vector<std::uint8_t> reply_body;
  ControlAction action = ControlAction::kNone;
};

class TcpServer {
 public:
  /// Handle one data request: `from` is the sender node id from the
  /// request envelope, `body` the encoded dtm::Request.  Return the
  /// encoded dtm::Response, or nullopt to poison the connection.
  using DataHandler = std::function<std::optional<std::vector<std::uint8_t>>(
      std::int64_t from, std::span<const std::uint8_t> body)>;
  /// Handle one control request body; always returns a reply.
  using ControlHandler =
      std::function<ControlOutcome(std::span<const std::uint8_t> body)>;

  TcpServer(TcpServerConfig config, DataHandler on_data,
            ControlHandler on_control);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The bound listening port (resolved even when config.port was 0).
  int port() const noexcept { return port_; }

  /// Block until a control op requested kShutdown (or stop() was called).
  void wait_shutdown();

  /// Stop the loop and the workers; flushes pending responses briefly so a
  /// shutdown reply reaches its caller.  Idempotent.
  void stop();

  const net::TransportCounters& counters() const noexcept { return counters_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  int port_ = 0;
  net::TransportCounters counters_;
};

}  // namespace acn::transport
