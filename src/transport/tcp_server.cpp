#include "src/transport/tcp_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "src/transport/frame.hpp"
#include "src/wal/format.hpp"

namespace acn::transport {
namespace {

void set_nodelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

struct TcpServer::Impl {
  struct Conn {
    int fd = -1;
    std::uint64_t serial = 0;
    bool hello_seen = false;
    Channel channel = Channel::kData;
    std::int64_t node = -1;
    FrameReader reader;
    std::vector<std::uint8_t> wbuf;
    std::size_t woff = 0;
  };

  struct Job {
    std::uint64_t conn = 0;
    std::uint64_t id = 0;
    std::int64_t from = -1;
    std::vector<std::uint8_t> body;
    bool control = false;
  };

  struct Outgoing {
    std::uint64_t conn = 0;
    std::vector<std::uint8_t> bytes;  // already framed
    bool poison = false;              // close instead of replying
  };

  TcpServerConfig config;
  DataHandler on_data;
  ControlHandler on_control;
  net::TransportCounters* counters = nullptr;

  int listen_fd = -1;
  int epoll_fd = -1;
  int event_fd = -1;
  std::thread io;
  std::vector<std::thread> workers;

  std::mutex job_mutex;
  std::condition_variable job_cv;
  std::deque<Job> jobs;
  bool workers_stop = false;
  std::atomic<int> jobs_inflight{0};

  std::mutex out_mutex;
  std::vector<Outgoing> outbox;
  std::vector<ControlAction> actions;

  std::atomic<bool> suspended{false};
  std::atomic<bool> stopping{false};
  std::atomic<bool> stopped{false};
  std::atomic<std::uint64_t> unflushed{0};  // queued write bytes, io-owned

  std::mutex shutdown_mutex;
  std::condition_variable shutdown_cv;
  bool shutdown_requested = false;

  std::unordered_map<int, Conn> conns;                   // by fd
  std::unordered_map<std::uint64_t, int> conn_by_serial;
  std::uint64_t next_serial = 1;

  void wake() {
    std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(event_fd, &one, sizeof one);
  }

  void push_outgoing(Outgoing out) {
    {
      std::lock_guard lock(out_mutex);
      outbox.push_back(std::move(out));
    }
    wake();
  }

  void push_action(ControlAction action) {
    {
      std::lock_guard lock(out_mutex);
      actions.push_back(action);
    }
    wake();
  }

  // ---- IO-thread side ---------------------------------------------------

  void update_interest(Conn& c) {
    epoll_event ev{};
    ev.events = EPOLLIN | (c.woff < c.wbuf.size() ? EPOLLOUT : 0u);
    ev.data.fd = c.fd;
    epoll_ctl(epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
  }

  void close_conn(int fd) {
    auto it = conns.find(fd);
    if (it == conns.end()) return;
    unflushed.fetch_sub(it->second.wbuf.size() - it->second.woff,
                        std::memory_order_relaxed);
    conn_by_serial.erase(it->second.serial);
    epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns.erase(it);
  }

  void close_data_conns() {
    std::vector<int> victims;
    for (const auto& [fd, c] : conns)
      if (!c.hello_seen || c.channel == Channel::kData) victims.push_back(fd);
    for (const int fd : victims) close_conn(fd);
  }

  void accept_loop() {
    for (;;) {
      const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) break;
      set_nodelay(fd);
      Conn c;
      c.fd = fd;
      c.serial = next_serial++;
      c.reader = FrameReader(config.max_frame);
      conn_by_serial[c.serial] = fd;
      conns.emplace(fd, std::move(c));
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev);
    }
  }

  void flush_writes(Conn& c) {
    while (c.woff < c.wbuf.size()) {
      const ssize_t n = ::send(c.fd, c.wbuf.data() + c.woff,
                               c.wbuf.size() - c.woff, MSG_NOSIGNAL);
      if (n > 0) {
        c.woff += static_cast<std::size_t>(n);
        counters->bytes_sent.fetch_add(static_cast<std::uint64_t>(n),
                                       std::memory_order_relaxed);
        unflushed.fetch_sub(static_cast<std::uint64_t>(n),
                            std::memory_order_relaxed);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      close_conn(c.fd);
      return;
    }
    if (c.woff == c.wbuf.size()) {
      c.wbuf.clear();
      c.woff = 0;
    }
    update_interest(c);
  }

  void drain_outbox() {
    std::vector<Outgoing> batch;
    std::vector<ControlAction> acts;
    {
      std::lock_guard lock(out_mutex);
      batch.swap(outbox);
      acts.swap(actions);
    }
    for (Outgoing& out : batch) {
      const auto it = conn_by_serial.find(out.conn);
      if (it == conn_by_serial.end()) continue;  // peer already gone
      if (out.poison) {
        close_conn(it->second);
        continue;
      }
      Conn& c = conns.at(it->second);
      c.wbuf.insert(c.wbuf.end(), out.bytes.begin(), out.bytes.end());
      unflushed.fetch_add(out.bytes.size(), std::memory_order_relaxed);
      flush_writes(c);
    }
    for (const ControlAction action : acts) {
      switch (action) {
        case ControlAction::kSuspend:
          suspended.store(true);
          close_data_conns();
          break;
        case ControlAction::kResume:
          suspended.store(false);
          break;
        case ControlAction::kShutdown: {
          std::lock_guard lock(shutdown_mutex);
          shutdown_requested = true;
          shutdown_cv.notify_all();
          break;
        }
        case ControlAction::kNone:
          break;
      }
    }
  }

  // One decoded frame payload from `c`; false => close the connection.
  bool handle_payload(Conn& c, std::span<const std::uint8_t> payload) {
    Envelope env;
    try {
      env = read_envelope(payload);
    } catch (const dtm::CodecError&) {
      counters->frames_corrupt.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    const auto body = payload.subspan(env.body_offset);
    switch (env.kind) {
      case FrameKind::kHello: {
        dtm::Decoder dec(body);
        try {
          const auto raw = dec.u8();
          if (raw > static_cast<std::uint8_t>(Channel::kControl)) return false;
          c.channel = static_cast<Channel>(raw);
          c.node = dec.i64();
        } catch (const dtm::CodecError&) {
          return false;
        }
        c.hello_seen = true;
        // A suspended replica refuses the data plane but keeps answering
        // control — the operator's out-of-band path into a "dead" node.
        if (c.channel == Channel::kData && suspended.load()) return false;
        return true;
      }
      case FrameKind::kRequest: {
        if (!c.hello_seen || c.channel != Channel::kData) return false;
        if (body.size() < sizeof(std::uint64_t)) return false;
        dtm::Decoder dec(body);
        Job job;
        job.conn = c.serial;
        job.id = env.id;
        job.from = dec.i64();
        const auto req = body.subspan(sizeof(std::uint64_t));
        job.body.assign(req.begin(), req.end());
        enqueue(std::move(job));
        return true;
      }
      case FrameKind::kControl: {
        if (!c.hello_seen || c.channel != Channel::kControl) return false;
        Job job;
        job.conn = c.serial;
        job.id = env.id;
        job.control = true;
        job.body.assign(body.begin(), body.end());
        enqueue(std::move(job));
        return true;
      }
      default:
        // kResponse / kControlReply travel server -> client only.
        counters->frames_corrupt.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
  }

  void handle_readable(Conn& c) {
    std::uint8_t buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n > 0) {
        counters->bytes_recv.fetch_add(static_cast<std::uint64_t>(n),
                                       std::memory_order_relaxed);
        if (!c.reader.feed({buf, static_cast<std::size_t>(n)})) {
          counters->frames_corrupt.fetch_add(1, std::memory_order_relaxed);
          close_conn(c.fd);
          return;
        }
        for (const auto& payload : c.reader.take()) {
          if (!handle_payload(c, payload)) {
            close_conn(c.fd);
            return;
          }
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      close_conn(c.fd);  // EOF or hard error
      return;
    }
  }

  void io_loop() {
    epoll_event events[64];
    while (!stopping.load()) {
      const int n = epoll_wait(epoll_fd, events, 64, 100);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == listen_fd) {
          accept_loop();
          continue;
        }
        if (fd == event_fd) {
          std::uint64_t drained;
          [[maybe_unused]] ssize_t r = ::read(event_fd, &drained, sizeof drained);
          drain_outbox();
          continue;
        }
        auto it = conns.find(fd);
        if (it == conns.end()) continue;
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          close_conn(fd);
          continue;
        }
        if (events[i].events & EPOLLOUT) flush_writes(it->second);
        it = conns.find(fd);  // flush may have closed (and erased) the conn
        if (it == conns.end()) continue;
        if (events[i].events & EPOLLIN) handle_readable(it->second);
      }
    }
    // Final courtesy flush so a shutdown reply reaches its caller.
    drain_outbox();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
    while (unflushed.load(std::memory_order_relaxed) > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      for (auto& [fd, c] : conns)
        if (c.woff < c.wbuf.size()) flush_writes(c);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::vector<int> fds;
    for (const auto& [fd, c] : conns) fds.push_back(fd);
    for (const int fd : fds) close_conn(fd);
  }

  // ---- worker side ------------------------------------------------------

  void enqueue(Job job) {
    std::lock_guard lock(job_mutex);
    jobs.push_back(std::move(job));
    job_cv.notify_one();
  }

  void worker_loop() {
    for (;;) {
      Job job;
      {
        std::unique_lock lock(job_mutex);
        job_cv.wait(lock, [&] { return workers_stop || !jobs.empty(); });
        if (workers_stop && jobs.empty()) return;
        job = std::move(jobs.front());
        jobs.pop_front();
        jobs_inflight.fetch_add(1, std::memory_order_relaxed);
      }
      Outgoing out;
      out.conn = job.conn;
      ControlAction action = ControlAction::kNone;
      if (job.control) {
        ControlOutcome outcome = on_control(job.body);
        action = outcome.action;
        const auto payload =
            make_payload(FrameKind::kControlReply, job.id, outcome.reply_body);
        wal::frame_record(out.bytes, payload);
      } else {
        const auto response = on_data(job.from, job.body);
        if (!response) {
          out.poison = true;
        } else {
          const auto payload =
              make_payload(FrameKind::kResponse, job.id, *response);
          wal::frame_record(out.bytes, payload);
        }
      }
      push_outgoing(std::move(out));
      if (action != ControlAction::kNone) push_action(action);
      jobs_inflight.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  bool idle() {
    std::lock_guard lock(job_mutex);
    std::lock_guard lock2(out_mutex);
    return jobs.empty() && outbox.empty() &&
           jobs_inflight.load(std::memory_order_relaxed) == 0 &&
           unflushed.load(std::memory_order_relaxed) == 0;
  }
};

TcpServer::TcpServer(TcpServerConfig config, DataHandler on_data,
                     ControlHandler on_control)
    : impl_(std::make_unique<Impl>()) {
  impl_->config = std::move(config);
  impl_->on_data = std::move(on_data);
  impl_->on_control = std::move(on_control);
  impl_->counters = &counters_;

  impl_->listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (impl_->listen_fd < 0)
    throw std::runtime_error("TcpServer: socket() failed");
  int one = 1;
  setsockopt(impl_->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(impl_->config.port));
  if (inet_pton(AF_INET, impl_->config.host.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("TcpServer: bad host " + impl_->config.host);
  if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof addr) != 0)
    throw std::runtime_error("TcpServer: bind failed: " +
                             std::string(std::strerror(errno)));
  if (::listen(impl_->listen_fd, 64) != 0)
    throw std::runtime_error("TcpServer: listen failed");

  socklen_t len = sizeof addr;
  getsockname(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  impl_->epoll_fd = epoll_create1(0);
  impl_->event_fd = eventfd(0, EFD_NONBLOCK);
  if (impl_->epoll_fd < 0 || impl_->event_fd < 0)
    throw std::runtime_error("TcpServer: epoll/eventfd failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = impl_->listen_fd;
  epoll_ctl(impl_->epoll_fd, EPOLL_CTL_ADD, impl_->listen_fd, &ev);
  ev.data.fd = impl_->event_fd;
  epoll_ctl(impl_->epoll_fd, EPOLL_CTL_ADD, impl_->event_fd, &ev);

  impl_->io = std::thread([this] { impl_->io_loop(); });
  const std::size_t n_workers = std::max<std::size_t>(1, impl_->config.workers);
  for (std::size_t i = 0; i < n_workers; ++i)
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::wait_shutdown() {
  std::unique_lock lock(impl_->shutdown_mutex);
  impl_->shutdown_cv.wait(lock, [&] {
    return impl_->shutdown_requested || impl_->stopped.load();
  });
}

void TcpServer::stop() {
  if (impl_->stopped.exchange(true)) return;
  // Let in-flight work finish and replies flush (bounded).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  while (!impl_->idle() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  {
    std::lock_guard lock(impl_->job_mutex);
    impl_->workers_stop = true;
    impl_->job_cv.notify_all();
  }
  for (auto& w : impl_->workers) w.join();
  impl_->stopping.store(true);
  impl_->wake();
  impl_->io.join();
  ::close(impl_->listen_fd);
  ::close(impl_->epoll_fd);
  ::close(impl_->event_fd);
  {
    std::lock_guard lock(impl_->shutdown_mutex);
    impl_->shutdown_cv.notify_all();
  }
}

}  // namespace acn::transport
