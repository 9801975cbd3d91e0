#include "src/transport/spawn.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace acn::transport {
namespace {

std::string log_tail(const std::string& path, std::size_t max_bytes = 2048) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "(no log)";
  in.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(in.tellg());
  const auto start = size > max_bytes ? size - max_bytes : 0;
  in.seekg(static_cast<std::streamoff>(start));
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

ProcessFleet::~ProcessFleet() { kill_all(); }

std::string ProcessFleet::default_binary() {
  if (const char* env = std::getenv("ACN_CLUSTER_MAIN"); env && *env)
    return env;
  // Fall back to the build-tree layout: cluster_main sits in src/ next to
  // the libraries, and every test/bench binary lives one directory deep
  // (build/tests, build/bench) or in build/src itself.
  char self[4096];
  const ssize_t n = readlink("/proc/self/exe", self, sizeof self - 1);
  if (n > 0) {
    self[n] = '\0';
    std::string dir(self);
    dir = dir.substr(0, dir.find_last_of('/'));
    for (const std::string& candidate :
         {dir + "/cluster_main", dir + "/../src/cluster_main",
          dir + "/../../src/cluster_main"}) {
      if (access(candidate.c_str(), X_OK) == 0) return candidate;
    }
  }
  throw std::runtime_error(
      "cluster_main binary not found: set ACN_CLUSTER_MAIN or build the "
      "cluster_main target");
}

int ProcessFleet::spawn(const std::string& binary, int node,
                        const std::vector<std::string>& args,
                        const std::string& log_path,
                        std::chrono::milliseconds ready_timeout) {
  int out_pipe[2];
  if (pipe(out_pipe) != 0) throw std::runtime_error("spawn: pipe() failed");

  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (log_fd < 0) {
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    throw std::runtime_error("spawn: cannot open log " + log_path);
  }

  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) {
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::close(log_fd);
    throw std::runtime_error("spawn: fork() failed");
  }
  if (pid == 0) {
    // Child: stdout -> readiness pipe, stderr -> log file.
    dup2(out_pipe[1], STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::close(log_fd);
    execv(binary.c_str(), argv.data());
    // exec failed — report through the (redirected) stderr and die hard.
    const char* msg = "execv failed\n";
    [[maybe_unused]] ssize_t w = write(STDERR_FILENO, msg, strlen(msg));
    _exit(127);
  }

  ::close(out_pipe[1]);
  ::close(log_fd);

  SpawnedNode entry;
  entry.node = node;
  entry.pid = pid;
  entry.log_path = log_path;

  // Read stdout lines until ACN_READY, child exit, or timeout.
  std::string buffer;
  const auto deadline = std::chrono::steady_clock::now() + ready_timeout;
  int port = -1;
  while (port < 0) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pfd{out_pipe[0], POLLIN, 0};
    const int rc = ::poll(&pfd, 1, std::max<int>(0, (int)left.count()));
    if (rc <= 0) break;  // timeout
    char chunk[512];
    const ssize_t n = ::read(out_pipe[0], chunk, sizeof chunk);
    if (n <= 0) break;  // EOF: child exited before READY
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      int got_node = -1, got_port = -1;
      if (sscanf(line.c_str(), "ACN_READY %d %d", &got_node, &got_port) == 2 &&
          got_node == node) {
        port = got_port;
        break;
      }
    }
  }
  ::close(out_pipe[0]);
  if (port < 0) {
    ::kill(pid, SIGKILL);
    int status = 0;
    waitpid(pid, &status, 0);
    throw std::runtime_error("node " + std::to_string(node) +
                             " never reported ready; log tail:\n" +
                             log_tail(log_path));
  }
  entry.port = port;
  nodes_.push_back(std::move(entry));
  return port;
}

bool ProcessFleet::wait_all(std::chrono::milliseconds grace) {
  bool clean = true;
  const auto deadline = std::chrono::steady_clock::now() + grace;
  for (SpawnedNode& n : nodes_) {
    if (n.pid <= 0) continue;
    int status = 0;
    for (;;) {
      const pid_t rc = waitpid(n.pid, &status, WNOHANG);
      if (rc == n.pid) {
        clean = clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
        n.pid = -1;
        break;
      }
      if (rc < 0) {  // already reaped / not ours
        n.pid = -1;
        break;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        ::kill(n.pid, SIGKILL);
        waitpid(n.pid, &status, 0);
        n.pid = -1;
        clean = false;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  return clean;
}

void ProcessFleet::kill_all() {
  for (SpawnedNode& n : nodes_) {
    if (n.pid <= 0) continue;
    ::kill(n.pid, SIGKILL);
    int status = 0;
    waitpid(n.pid, &status, 0);
    n.pid = -1;
  }
}

}  // namespace acn::transport
