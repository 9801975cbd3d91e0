#include "src/transport/tcp_transport.hpp"

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
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "src/common/clock.hpp"
#include "src/common/rng.hpp"
#include "src/transport/frame.hpp"

namespace acn::transport {
namespace {

using Clock = std::chrono::steady_clock;

void set_nodelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

bool fill_addr(const Endpoint& ep, sockaddr_in& addr) {
  addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(ep.port));
  return inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) == 1;
}

std::uint64_t link_key(net::NodeId from, net::NodeId to) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
         static_cast<std::uint32_t>(to);
}

}  // namespace

struct TcpTransport::Impl {
  struct Pending {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    /// Response-leg drop, rolled at send time: a completed result is
    /// discarded and surfaced as kDropped (lost ack — handler ran).
    bool response_drop = false;
    net::CallResult<dtm::Response> result;

    void complete(net::CallResult<dtm::Response> r) {
      std::lock_guard lock(m);
      done = true;
      result = std::move(r);
      cv.notify_all();
    }
  };

  struct Peer {
    Endpoint ep;
    // -- data plane (owned by the IO thread once dialing starts) --
    int fd = -1;
    bool connecting = false;
    bool hello_queued = false;
    FrameReader reader;
    std::vector<std::uint8_t> wbuf;
    std::size_t woff = 0;
    bool ever_connected = false;
    int dial_failures = 0;
    Clock::time_point next_dial{};  // earliest re-dial (backoff)
    std::unordered_set<std::uint64_t> inflight;  // request ids on this peer
    // -- control plane (blocking, caller threads, serialized) --
    std::mutex control_mutex;
    int control_fd = -1;
    std::uint64_t control_seq = 0;
  };

  TcpTransportConfig config;
  net::TransportCounters* counters = nullptr;

  int epoll_fd = -1;
  int event_fd = -1;
  std::thread io;
  std::atomic<bool> stopping{false};
  std::atomic<bool> closed{false};

  // state_mutex guards peers' data-plane members, pending, faults and
  // local handlers.  The IO thread takes it around every epoll event; the
  // hot caller path takes it once to queue frames.  Never held across
  // epoll_wait or a sleep.
  mutable std::mutex state_mutex;
  std::map<net::NodeId, std::unique_ptr<Peer>> peers;
  std::unordered_map<int, net::NodeId> peer_by_fd;
  std::unordered_map<std::uint64_t, std::shared_ptr<Pending>> pending;
  std::atomic<std::uint64_t> next_request_id{1};

  std::unordered_map<net::NodeId, Handler> locals;
  std::unordered_set<net::NodeId> down;
  std::atomic<double> drop_probability{0.0};
  std::atomic<std::int64_t> extra_latency_ns{0};
  std::unordered_map<std::uint64_t, net::LinkFault> links;
  std::unordered_map<net::NodeId, int> partition_groups;
  bool partitioned = false;

  void wake() {
    std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(event_fd, &one, sizeof one);
  }

  // Per-thread fault RNG, mirroring net::Network::drop_rng.
  static Rng& fault_rng() noexcept {
    static std::atomic<std::uint64_t> next_stream{0};
    thread_local Rng rng = [] {
      std::uint64_t stream =
          0x7cbdecafULL + next_stream.fetch_add(1, std::memory_order_relaxed);
      return Rng(splitmix64(stream));
    }();
    return rng;
  }

  // ---- fault evaluation (state_mutex held unless noted) -----------------

  int group_of(net::NodeId id) const {
    const auto it = partition_groups.find(id);
    return it == partition_groups.end() ? 0 : it->second;
  }

  bool partition_blocked(net::NodeId from, net::NodeId to) const {
    return partitioned && group_of(from) != group_of(to);
  }

  double leg_drop(net::NodeId from, net::NodeId to) const {
    double p = drop_probability.load(std::memory_order_relaxed);
    const auto it = links.find(link_key(from, to));
    if (it != links.end() && it->second.drop > 0.0)
      p = 1.0 - (1.0 - p) * (1.0 - it->second.drop);
    return p;
  }

  Nanos leg_extra(net::NodeId from, net::NodeId to) const {
    Nanos extra{extra_latency_ns.load(std::memory_order_relaxed)};
    const auto it = links.find(link_key(from, to));
    if (it != links.end()) extra += it->second.extra_latency;
    return extra;
  }

  // ---- IO thread --------------------------------------------------------

  void update_interest(Peer& p) {
    epoll_event ev{};
    ev.events = EPOLLIN |
                ((p.connecting || p.woff < p.wbuf.size()) ? EPOLLOUT : 0u);
    ev.data.fd = p.fd;
    epoll_ctl(epoll_fd, EPOLL_CTL_MOD, p.fd, &ev);
  }

  // Requires state_mutex.  Fails every in-flight call on `p` (connection
  // loss = outcome unknown = kDropped) and drops its queued frames.
  void fail_peer(Peer& p, net::NetErrorCode code) {
    for (const std::uint64_t id : p.inflight) {
      const auto it = pending.find(id);
      if (it == pending.end()) continue;
      net::CallResult<dtm::Response> r;
      r.error = code;
      it->second->complete(std::move(r));
      pending.erase(it);
    }
    p.inflight.clear();
    p.wbuf.clear();
    p.woff = 0;
  }

  // Requires state_mutex.
  void close_peer(Peer& p, net::NetErrorCode fail_code) {
    if (p.fd >= 0) {
      epoll_ctl(epoll_fd, EPOLL_CTL_DEL, p.fd, nullptr);
      peer_by_fd.erase(p.fd);
      ::close(p.fd);
      p.fd = -1;
    }
    p.connecting = false;
    p.hello_queued = false;
    p.reader = FrameReader(config.max_frame);
    fail_peer(p, fail_code);
  }

  // Requires state_mutex.  Dial if the peer has work and no connection.
  void maybe_dial(net::NodeId id, Peer& p) {
    if (p.fd >= 0 || p.wbuf.empty()) return;
    if (Clock::now() < p.next_dial) return;  // backing off
    sockaddr_in addr;
    if (!fill_addr(p.ep, addr)) {
      fail_peer(p, net::NetErrorCode::kDropped);
      return;
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0) {
      fail_peer(p, net::NetErrorCode::kDropped);
      return;
    }
    set_nodelay(fd);
    const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                             sizeof addr);
    if (rc != 0 && errno != EINPROGRESS) {
      ::close(fd);
      on_dial_failure(p);
      return;
    }
    p.fd = fd;
    p.connecting = rc != 0;
    peer_by_fd[fd] = id;
    // The hello frame must precede everything queued while disconnected.
    if (!p.hello_queued) {
      std::vector<std::uint8_t> hello;
      append_frame(hello, encode_hello(Channel::kData, -1));
      p.wbuf.insert(p.wbuf.begin(), hello.begin(), hello.end());
      p.hello_queued = true;
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.fd = fd;
    epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev);
    if (!p.connecting) on_connected(p);
  }

  // Requires state_mutex.
  void on_dial_failure(Peer& p) {
    const int capped =
        std::min(p.dial_failures, config.reconnect_max_doublings);
    p.next_dial = Clock::now() + config.reconnect_base * (1u << capped);
    ++p.dial_failures;
    fail_peer(p, net::NetErrorCode::kDropped);
    p.hello_queued = false;
  }

  // Requires state_mutex.
  void on_connected(Peer& p) {
    p.connecting = false;
    p.dial_failures = 0;
    if (p.ever_connected)
      counters->reconnects.fetch_add(1, std::memory_order_relaxed);
    p.ever_connected = true;
    flush_writes(p);
  }

  // Requires state_mutex.
  void flush_writes(Peer& p) {
    while (p.woff < p.wbuf.size()) {
      const ssize_t n = ::send(p.fd, p.wbuf.data() + p.woff,
                               p.wbuf.size() - p.woff, MSG_NOSIGNAL);
      if (n > 0) {
        p.woff += static_cast<std::size_t>(n);
        counters->bytes_sent.fetch_add(static_cast<std::uint64_t>(n),
                                       std::memory_order_relaxed);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      close_peer(p, net::NetErrorCode::kDropped);
      return;
    }
    if (p.woff == p.wbuf.size()) {
      p.wbuf.clear();
      p.woff = 0;
    }
    update_interest(p);
  }

  // Requires state_mutex.
  void handle_readable(Peer& p) {
    std::uint8_t buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(p.fd, buf, sizeof buf, 0);
      if (n > 0) {
        counters->bytes_recv.fetch_add(static_cast<std::uint64_t>(n),
                                       std::memory_order_relaxed);
        if (!p.reader.feed({buf, static_cast<std::size_t>(n)})) {
          counters->frames_corrupt.fetch_add(1, std::memory_order_relaxed);
          close_peer(p, net::NetErrorCode::kDropped);
          return;
        }
        for (const auto& payload : p.reader.take())
          if (!handle_payload(p, payload)) {
            close_peer(p, net::NetErrorCode::kDropped);
            return;
          }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      close_peer(p, net::NetErrorCode::kDropped);
      return;
    }
  }

  // Requires state_mutex.  False poisons the connection.
  bool handle_payload(Peer& p, std::span<const std::uint8_t> payload) {
    Envelope env;
    try {
      env = read_envelope(payload);
    } catch (const dtm::CodecError&) {
      counters->frames_corrupt.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (env.kind != FrameKind::kResponse) {
      counters->frames_corrupt.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    const auto it = pending.find(env.id);
    p.inflight.erase(env.id);
    if (it == pending.end()) return true;  // caller gave up (deadline)
    net::CallResult<dtm::Response> result;
    try {
      result.response = dtm::decode_response(payload.subspan(env.body_offset));
    } catch (const dtm::CodecError&) {
      counters->frames_corrupt.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    it->second->complete(std::move(result));
    pending.erase(it);
    return true;
  }

  void io_loop() {
    epoll_event events[64];
    while (!stopping.load()) {
      int timeout_ms = 50;
      {
        // Dial pass: connect any peer that queued frames, honoring backoff.
        std::lock_guard lock(state_mutex);
        const auto now = Clock::now();
        for (auto& [id, peer] : peers) {
          maybe_dial(id, *peer);
          if (peer->fd < 0 && !peer->wbuf.empty() && peer->next_dial > now) {
            const auto wait_ms =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    peer->next_dial - now)
                    .count();
            timeout_ms = std::min<int>(timeout_ms,
                                       std::max<int>(1, (int)wait_ms));
          }
        }
      }
      const int n = epoll_wait(epoll_fd, events, 64, timeout_ms);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == event_fd) {
          std::uint64_t drained;
          [[maybe_unused]] ssize_t r =
              ::read(event_fd, &drained, sizeof drained);
          continue;  // dial + flush happen at the top of the loop
        }
        std::lock_guard lock(state_mutex);
        const auto pit = peer_by_fd.find(fd);
        if (pit == peer_by_fd.end()) continue;
        Peer& p = *peers.at(pit->second);
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          if (p.connecting)
            on_dial_failure(p);
          close_peer(p, net::NetErrorCode::kDropped);
          continue;
        }
        if (events[i].events & EPOLLOUT) {
          if (p.connecting) {
            int err = 0;
            socklen_t len = sizeof err;
            getsockopt(p.fd, SOL_SOCKET, SO_ERROR, &err, &len);
            if (err != 0) {
              on_dial_failure(p);
              close_peer(p, net::NetErrorCode::kDropped);
              continue;
            }
            on_connected(p);
          } else {
            flush_writes(p);
          }
        }
        if (peer_by_fd.find(fd) == peer_by_fd.end()) continue;
        if (events[i].events & EPOLLIN) handle_readable(p);
      }
    }
  }

  // ---- caller side ------------------------------------------------------

  /// Queue one encoded request frame for `to`; returns the pending slot.
  std::shared_ptr<Pending> submit(Peer& p, std::uint64_t id,
                                  std::span<const std::uint8_t> payload,
                                  bool response_drop) {
    auto slot = std::make_shared<Pending>();
    slot->response_drop = response_drop;
    {
      std::lock_guard lock(state_mutex);
      pending[id] = slot;
      p.inflight.insert(id);
      append_frame(p.wbuf, payload);
      if (p.fd >= 0 && !p.connecting) flush_writes(p);
    }
    wake();
    return slot;
  }

  /// Wait for `slot` until `deadline`; on expiry the call unregisters
  /// itself and reports kDropped (a timeout: the transport-level analogue
  /// of the simulation's dropped response).
  net::CallResult<dtm::Response> await(net::NodeId to, std::uint64_t id,
                                       const std::shared_ptr<Pending>& slot,
                                       Clock::time_point deadline) {
    std::unique_lock lock(slot->m);
    if (!slot->cv.wait_until(lock, deadline, [&] { return slot->done; })) {
      lock.unlock();
      std::lock_guard state(state_mutex);
      // Re-check under the state lock: the IO thread may have completed
      // the call between our timeout and this point.
      std::lock_guard again(slot->m);
      if (!slot->done) {
        pending.erase(id);
        const auto pit = peers.find(to);
        if (pit != peers.end()) pit->second->inflight.erase(id);
        slot->done = true;
        slot->result.error = net::NetErrorCode::kDropped;
      }
      return slot->result;
    }
    return slot->result;
  }

  // ---- control plane ----------------------------------------------------

  void close_control(Peer& p) {
    if (p.control_fd >= 0) {
      ::close(p.control_fd);
      p.control_fd = -1;
    }
  }

  bool control_connect(Peer& p, Clock::time_point deadline) {
    if (p.control_fd >= 0) return true;
    sockaddr_in addr;
    if (!fill_addr(p.ep, addr)) return false;
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0) return false;
    set_nodelay(fd);
    const int rc =
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    if (rc != 0 && errno != EINPROGRESS) {
      ::close(fd);
      return false;
    }
    if (rc != 0) {
      pollfd pfd{fd, POLLOUT, 0};
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (::poll(&pfd, 1, std::max<int>(1, (int)left.count())) <= 0) {
        ::close(fd);
        return false;
      }
      int err = 0;
      socklen_t len = sizeof err;
      getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        ::close(fd);
        return false;
      }
    }
    // Hello: this connection is the management plane.
    std::vector<std::uint8_t> hello;
    append_frame(hello, encode_hello(Channel::kControl, -1));
    if (!control_write(fd, hello, deadline)) {
      ::close(fd);
      return false;
    }
    p.control_fd = fd;
    return true;
  }

  bool control_write(int fd, std::span<const std::uint8_t> bytes,
                     Clock::time_point deadline) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        counters->bytes_sent.fetch_add(static_cast<std::uint64_t>(n),
                                       std::memory_order_relaxed);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        pollfd pfd{fd, POLLOUT, 0};
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - Clock::now());
        if (left.count() <= 0 ||
            ::poll(&pfd, 1, std::max<int>(1, (int)left.count())) <= 0)
          return false;
        continue;
      }
      return false;
    }
    return true;
  }

  std::optional<ControlReply> control_roundtrip(Peer& p,
                                                const ControlRequest& req) {
    std::lock_guard lock(p.control_mutex);
    const auto deadline = Clock::now() + config.control_timeout;
    for (int attempt = 0; attempt < 2; ++attempt) {
      if (!control_connect(p, deadline)) return std::nullopt;
      const std::uint64_t id = ++p.control_seq;
      std::vector<std::uint8_t> frame;
      append_frame(frame,
                   make_payload(FrameKind::kControl, id, encode_control(req)));
      if (!control_write(p.control_fd, frame, deadline)) {
        // A dead cached connection (peer restarted): re-dial once.
        close_control(p);
        continue;
      }
      FrameReader reader(config.max_frame);
      std::uint8_t buf[64 * 1024];
      for (;;) {
        for (const auto& payload : reader.take()) {
          try {
            const Envelope env = read_envelope(payload);
            if (env.kind != FrameKind::kControlReply) throw dtm::CodecError("");
            if (env.id != id) continue;  // stale reply from a prior timeout
            return decode_control_reply(
                std::span(payload).subspan(env.body_offset));
          } catch (const dtm::CodecError&) {
            counters->frames_corrupt.fetch_add(1, std::memory_order_relaxed);
            close_control(p);
            return std::nullopt;
          }
        }
        pollfd pfd{p.control_fd, POLLIN, 0};
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - Clock::now());
        if (left.count() <= 0 ||
            ::poll(&pfd, 1, std::max<int>(1, (int)left.count())) <= 0) {
          close_control(p);
          return std::nullopt;
        }
        const ssize_t n = ::recv(p.control_fd, buf, sizeof buf, 0);
        if (n <= 0) {
          close_control(p);
          if (n == 0 && attempt == 0) break;  // stale conn: retry dial
          return std::nullopt;
        }
        counters->bytes_recv.fetch_add(static_cast<std::uint64_t>(n),
                                       std::memory_order_relaxed);
        if (!reader.feed({buf, static_cast<std::size_t>(n)})) {
          counters->frames_corrupt.fetch_add(1, std::memory_order_relaxed);
          close_control(p);
          return std::nullopt;
        }
      }
    }
    return std::nullopt;
  }
};

TcpTransport::TcpTransport(std::map<net::NodeId, Endpoint> peers,
                           TcpTransportConfig config, std::uint64_t seed)
    : peers_(std::move(peers)), impl_(std::make_unique<Impl>()) {
  (void)seed;  // per-thread fault RNGs self-seed, matching net::Network
  impl_->config = config;
  impl_->counters = &counters_;
  impl_->epoll_fd = epoll_create1(0);
  impl_->event_fd = eventfd(0, EFD_NONBLOCK);
  if (impl_->epoll_fd < 0 || impl_->event_fd < 0)
    throw std::runtime_error("TcpTransport: epoll/eventfd failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = impl_->event_fd;
  epoll_ctl(impl_->epoll_fd, EPOLL_CTL_ADD, impl_->event_fd, &ev);
  for (const auto& [id, ep] : peers_) {
    auto peer = std::make_unique<Impl::Peer>();
    peer->ep = ep;
    peer->reader = FrameReader(config.max_frame);
    impl_->peers.emplace(id, std::move(peer));
  }
  impl_->io = std::thread([this] { impl_->io_loop(); });
}

TcpTransport::~TcpTransport() { close(); }

void TcpTransport::close() {
  if (impl_->closed.exchange(true)) return;
  impl_->stopping.store(true);
  impl_->wake();
  impl_->io.join();
  std::lock_guard lock(impl_->state_mutex);
  for (auto& [id, peer] : impl_->peers) {
    impl_->close_peer(*peer, net::NetErrorCode::kDropped);
    impl_->close_control(*peer);
  }
  ::close(impl_->epoll_fd);
  ::close(impl_->event_fd);
}

void TcpTransport::register_local(net::NodeId id, Handler handler) {
  std::lock_guard lock(impl_->state_mutex);
  impl_->locals[id] = std::move(handler);
  impl_->down.erase(id);
}

net::CallResult<dtm::Response> TcpTransport::call(net::NodeId from,
                                                  net::NodeId to,
                                                  const dtm::Request& req) {
  net::require_not_in_handler("call");
  auto results = multicall(from, {to}, req);
  return std::move(results.front());
}

std::vector<net::CallResult<dtm::Response>> TcpTransport::multicall(
    net::NodeId from, const std::vector<net::NodeId>& targets,
    const dtm::Request& req) {
  net::require_not_in_handler("multicall");
  std::vector<net::CallResult<dtm::Response>> out(targets.size());
  std::vector<std::shared_ptr<Impl::Pending>> slots(targets.size());
  std::vector<std::uint64_t> ids(targets.size(), 0);

  // Pre-send fault pass + local dispatch, mirroring the simulation's
  // dispatch phase.  Sends for every remote target are queued before any
  // wait, so the requests genuinely overlap on the wire.
  Nanos extra_total{0};
  std::vector<std::uint8_t> payload;  // encoded once, shared by all targets
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const net::NodeId to = targets[i];
    Impl::Peer* peer = nullptr;
    Handler local;
    bool response_drop = false;
    {
      std::lock_guard lock(impl_->state_mutex);
      if (impl_->down.count(to)) {
        out[i].error = net::NetErrorCode::kNodeDown;
        continue;
      }
      if (impl_->partition_blocked(from, to)) {
        out[i].error = net::NetErrorCode::kPartitioned;
        continue;
      }
      const double fwd_drop = impl_->leg_drop(from, to);
      if (fwd_drop > 0.0 && Impl::fault_rng().bernoulli(fwd_drop)) {
        out[i].error = net::NetErrorCode::kDropped;  // never hits the wire
        continue;
      }
      const double back_drop = impl_->leg_drop(to, from);
      response_drop = back_drop > 0.0 && Impl::fault_rng().bernoulli(back_drop);
      extra_total = std::max(
          extra_total, impl_->leg_extra(from, to) + impl_->leg_extra(to, from));
      const auto lit = impl_->locals.find(to);
      if (lit != impl_->locals.end()) {
        local = lit->second;
      } else if (const auto pit = impl_->peers.find(to);
                 pit != impl_->peers.end()) {
        peer = pit->second.get();
      } else {
        out[i].error = net::NetErrorCode::kNodeDown;  // unknown address
        continue;
      }
    }
    if (local) {
      // Loopback: a handler this endpoint serves itself (coordinator
      // decision queries).  Invoked inline under the same re-entrancy
      // guard a remote server applies.
      counters_.bytes_sent.fetch_add(req.approx_size(),
                                     std::memory_order_relaxed);
      net::HandlerScope scope;
      out[i].response = local(from, req);
      counters_.bytes_recv.fetch_add(out[i].response.approx_size(),
                                     std::memory_order_relaxed);
      if (response_drop) {
        out[i].error = net::NetErrorCode::kDropped;
        out[i].response = {};
      }
      continue;
    }
    const std::uint64_t id =
        impl_->next_request_id.fetch_add(1, std::memory_order_relaxed);
    if (payload.empty())
      payload = encode_request_payload(0, from, req);
    // Patch the request id into the shared payload (envelope byte 1..8).
    std::memcpy(payload.data() + 1, &id, sizeof id);
    ids[i] = id;
    // The response-leg drop was rolled up front; a discarded arrival
    // surfaces as kDropped below — identical lost-ack semantics to the sim.
    slots[i] = impl_->submit(*peer, id, payload, response_drop);
  }

  precise_sleep_for(extra_total);

  const auto deadline = Clock::now() + impl_->config.call_timeout;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (!slots[i]) continue;
    out[i] = impl_->await(targets[i], ids[i], slots[i], deadline);
    if (slots[i]->response_drop && out[i].ok()) {
      out[i].error = net::NetErrorCode::kDropped;
      out[i].response = {};
    }
  }
  return out;
}

void TcpTransport::set_node_down(net::NodeId id, bool down) {
  std::lock_guard lock(impl_->state_mutex);
  if (down) {
    impl_->down.insert(id);
    const auto it = impl_->peers.find(id);
    if (it != impl_->peers.end())
      impl_->close_peer(*it->second, net::NetErrorCode::kDropped);
  } else {
    impl_->down.erase(id);
    const auto it = impl_->peers.find(id);
    if (it != impl_->peers.end()) {
      it->second->dial_failures = 0;
      it->second->next_dial = {};
    }
  }
}

bool TcpTransport::node_down(net::NodeId id) const {
  std::lock_guard lock(impl_->state_mutex);
  return impl_->down.count(id) > 0;
}

void TcpTransport::set_drop_probability(double p) {
  impl_->drop_probability.store(p);
}
double TcpTransport::drop_probability() const {
  return impl_->drop_probability.load();
}
void TcpTransport::set_extra_latency(Nanos extra) {
  impl_->extra_latency_ns.store(extra.count(), std::memory_order_relaxed);
}
Nanos TcpTransport::extra_latency() const {
  return Nanos{impl_->extra_latency_ns.load(std::memory_order_relaxed)};
}

void TcpTransport::set_partition(
    const std::vector<std::vector<net::NodeId>>& groups) {
  std::lock_guard lock(impl_->state_mutex);
  impl_->partition_groups.clear();
  for (std::size_t g = 0; g < groups.size(); ++g)
    for (const net::NodeId id : groups[g])
      impl_->partition_groups[id] = static_cast<int>(g);
  impl_->partitioned = true;
  // Socket-layer enforcement: kill live connections that now cross the
  // partition (this endpoint's local ids sit in the callers' groups —
  // unlisted ones in group 0, like the simulation).
  for (auto& [id, peer] : impl_->peers) {
    bool blocked = impl_->group_of(id) != 0;
    for (const auto& [lid, h] : impl_->locals)
      if (impl_->group_of(lid) == impl_->group_of(id)) blocked = false;
    if (blocked) impl_->close_peer(*peer, net::NetErrorCode::kDropped);
  }
}

void TcpTransport::clear_partition() {
  std::lock_guard lock(impl_->state_mutex);
  impl_->partition_groups.clear();
  impl_->partitioned = false;
}

bool TcpTransport::partitioned() const {
  std::lock_guard lock(impl_->state_mutex);
  return impl_->partitioned;
}

void TcpTransport::set_link_fault(net::NodeId from, net::NodeId to,
                                  net::LinkFault fault) {
  std::lock_guard lock(impl_->state_mutex);
  impl_->links[link_key(from, to)] = fault;
}
void TcpTransport::clear_link_fault(net::NodeId from, net::NodeId to) {
  std::lock_guard lock(impl_->state_mutex);
  impl_->links.erase(link_key(from, to));
}
void TcpTransport::clear_link_faults() {
  std::lock_guard lock(impl_->state_mutex);
  impl_->links.clear();
}

std::optional<ControlReply> TcpTransport::control(
    net::NodeId to, const ControlRequest& req) {
  Impl::Peer* peer = nullptr;
  {
    std::lock_guard lock(impl_->state_mutex);
    const auto it = impl_->peers.find(to);
    if (it == impl_->peers.end()) return std::nullopt;
    peer = it->second.get();
  }
  return impl_->control_roundtrip(*peer, req);
}

}  // namespace acn::transport
