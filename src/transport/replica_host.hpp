// One replica and its management surface, shared by both transports.
//
// A ReplicaHost owns a dtm::Server and, with a WAL, its
// wal::ReplicaPersistence, both built from one ReplicaConfig.  control()
// is the one implementation of every control-plane op
// (src/transport/wire.hpp).  harness::Cluster holds one host per node in
// sim mode and calls control() in-process; in TCP mode each cluster_main
// process holds one, and the harness reaches it through
// TcpTransport::control.  The host never touches a transport: what an op
// means for the data plane is the caller's to apply (the Cluster marks a
// crashed node down on its transport; cluster_main maps kCrash, kResume
// and kShutdown onto TcpServer actions).
//
// ReplicaFlags is a replica process's command line: replica_args() builds
// the argv harness::Cluster hands a spawned cluster_main, and
// parse_replica_flags() reads it back.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/dtm/server.hpp"
#include "src/transport/wire.hpp"
#include "src/wal/persistence.hpp"

namespace acn::transport {

struct ReplicaConfig {
  net::NodeId node = 0;
  std::uint32_t group = 0;
  std::int64_t lease_ns = 0;   // prepare lease; <= 0 never expires
  std::int64_t window_ns = 0;  // contention window; 0 = kRollWindows rolls
  bool durable = false;        // persist through src/wal, configured by `wal`
  wal::WalConfig wal;

  friend bool operator==(const ReplicaConfig&, const ReplicaConfig&) = default;
};

class ReplicaHost {
 public:
  /// With a WAL, recovers the server from data_dir before it serves (a
  /// host built over an existing directory is a restart).
  explicit ReplicaHost(const ReplicaConfig& config);

  /// Run one control op.  A failure comes back as !ok with its message.
  ControlReply control(const ControlRequest& req);

  dtm::Server& server() noexcept { return server_; }
  /// The durable backend, or nullptr for a volatile replica.
  wal::ReplicaPersistence* persistence() noexcept { return persistence_.get(); }
  /// Route the server's and the WAL's instrumentation into `obs`.
  void set_obs(obs::Observability* obs) noexcept;

 private:
  // Declared before server_ so the sink outlives the server pointing at it.
  std::unique_ptr<wal::ReplicaPersistence> persistence_;
  dtm::Server server_;
};

struct ReplicaFlags {
  ReplicaConfig replica;
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral
  std::size_t workers = 2;
};

/// Upper bound on --workers (request worker threads per replica).
inline constexpr std::size_t kMaxReplicaWorkers = 256;

/// The cluster_main argv (without argv[0]) that parses back to `flags`.
std::vector<std::string> replica_args(const ReplicaFlags& flags);

/// Parse cluster_main's argv (without argv[0]).  An unknown flag, a
/// malformed or out-of-range value, or a missing --node returns nullopt
/// and sets `error`.  Without --data-dir the WAL lives in acn-data/node-<node>.
std::optional<ReplicaFlags> parse_replica_flags(
    const std::vector<std::string>& args, std::string& error);

}  // namespace acn::transport
