// cluster_main — one QR-DTM replica as a standalone OS process.
//
// harness::Cluster (or an operator) launches one cluster_main per replica.
// The replica is a transport::ReplicaHost — the object harness::Cluster
// holds per node in sim mode — behind a transport::TcpServer: data frames
// reach the same Server::handle the simulated cluster calls inline, and
// control frames reach ReplicaHost::control, so a replica answers every
// management op the same way over either transport.  This file adds only
// the socket side: flag parsing, the TcpServer, and what the server does
// to itself after an op (crash suspends the data plane, resume lifts the
// suspension, shutdown exits).
//
// Flags (transport::parse_replica_flags; an unknown flag or an
// out-of-range value exits 2):
//   --node=N (required)  --group=G  --host=H  --port=P  --workers=N (1..256)
//   --lease-ns=N         prepare lease lifetime (<= 0 = never expires)
//   --window-ns=N        contention window (0 = rolled via control plane)
//   --durability=none|wal  --data-dir=DIR (default acn-data/node-N)
//   --flush-ns=N --snapshot-bytes=N --no-fsync   WAL tuning
//
// Stdout prints exactly one line, `ACN_READY <node> <port>`, once the
// listener is up — the spawn handshake (port 0 = ephemeral, so parallel CI
// jobs never collide).  Logs go to stderr.  The process exits 0 on a
// control-plane shutdown.

#include <cstdio>
#include <string>
#include <vector>

#include "src/dtm/codec.hpp"
#include "src/transport/replica_host.hpp"
#include "src/transport/tcp_server.hpp"

namespace {

using namespace acn;

transport::ControlAction action_for(transport::ControlOp op) {
  switch (op) {
    case transport::ControlOp::kCrash:
      return transport::ControlAction::kSuspend;
    case transport::ControlOp::kResume:
      return transport::ControlAction::kResume;
    case transport::ControlOp::kShutdown:
      return transport::ControlAction::kShutdown;
    default:
      return transport::ControlAction::kNone;
  }
}

transport::ControlOutcome serve_control(transport::ReplicaHost& host,
                                        std::span<const std::uint8_t> body) {
  transport::ControlOutcome out;
  transport::ControlReply reply;
  try {
    const transport::ControlRequest req = transport::decode_control(body);
    reply = host.control(req);
    if (reply.ok) out.action = action_for(req.op);
  } catch (const dtm::CodecError& e) {
    reply.ok = false;
    reply.error = e.what();
  }
  out.reply_body = transport::encode_control_reply(reply);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  auto parsed = transport::parse_replica_flags(
      std::vector<std::string>(argv + 1, argv + argc), error);
  if (!parsed) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  const transport::ReplicaFlags flags = *std::move(parsed);
  const transport::ReplicaConfig& replica = flags.replica;

  try {
    transport::ReplicaHost host(replica);

    transport::TcpServerConfig server_config;
    server_config.host = flags.host;
    server_config.port = flags.port;
    server_config.workers = flags.workers;

    dtm::Server* server = &host.server();
    transport::TcpServer tcp(
        server_config,
        [server](std::int64_t from, std::span<const std::uint8_t> body)
            -> std::optional<std::vector<std::uint8_t>> {
          try {
            const dtm::Request request = dtm::decode_request(body);
            const dtm::Response response =
                server->handle(static_cast<net::NodeId>(from), request);
            return dtm::encode(response);
          } catch (const dtm::CodecError& e) {
            // Malformed dtm payload inside a CRC-valid frame: the stream
            // is not trustworthy — poison the connection.
            std::fprintf(stderr, "data codec error: %s\n", e.what());
            return std::nullopt;
          }
        },
        [&host](std::span<const std::uint8_t> body) {
          return serve_control(host, body);
        });

    std::printf("ACN_READY %d %d\n", replica.node, tcp.port());
    std::fflush(stdout);
    std::fprintf(stderr, "node %d (group %u) listening on %s:%d\n",
                 replica.node, replica.group, flags.host.c_str(), tcp.port());

    tcp.wait_shutdown();
    tcp.stop();
    std::fprintf(stderr, "node %d: clean shutdown\n", replica.node);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
  }
}
