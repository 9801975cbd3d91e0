// Spawning and supervising a fleet of cluster_main replica processes.
//
// Each replica is fork/exec'd with its stderr redirected to a per-node log
// file and its stdout piped back to the parent; the child prints
// `ACN_READY <node> <port>` once its TcpServer is listening (port matters:
// replicas bind ephemeral ports so parallel CI jobs never collide), and
// the parent blocks on that line with a timeout.  Teardown is staged:
// callers first ask each replica to exit via the control plane
// (ControlOp::kShutdown), then wait_all() reaps with a grace period, and
// anything still alive is SIGKILLed — so a hung replica fails the run
// loudly instead of leaking processes into the machine.
#pragma once

#include <chrono>
#include <string>
#include <sys/types.h>
#include <vector>

namespace acn::transport {

struct SpawnedNode {
  int node = -1;
  pid_t pid = -1;
  int port = 0;
  std::string log_path;
};

class ProcessFleet {
 public:
  ProcessFleet() = default;
  /// Kills anything still running (SIGKILL — prefer an orderly shutdown +
  /// wait_all() first).
  ~ProcessFleet();

  ProcessFleet(const ProcessFleet&) = delete;
  ProcessFleet& operator=(const ProcessFleet&) = delete;

  /// Locate the cluster_main binary: $ACN_CLUSTER_MAIN when set, else next
  /// to the running executable (the build tree layout).  Throws
  /// std::runtime_error when neither resolves to an executable file.
  static std::string default_binary();

  /// Launch `binary` with `args` (argv[1..]), stderr to `log_path`, and
  /// wait up to `ready_timeout` for the ACN_READY handshake.  Returns the
  /// node's bound port.  Throws std::runtime_error on spawn failure, child
  /// exit, or timeout (the log's tail is included in the message).
  int spawn(const std::string& binary, int node,
            const std::vector<std::string>& args, const std::string& log_path,
            std::chrono::milliseconds ready_timeout);

  /// Reap every child, waiting up to `grace` for voluntary exit, then
  /// SIGKILL + reap stragglers.  Returns true when all exited voluntarily
  /// with status 0.
  bool wait_all(std::chrono::milliseconds grace);

  /// SIGKILL + reap everything immediately.
  void kill_all();

 private:
  std::vector<SpawnedNode> nodes_;
};

}  // namespace acn::transport
