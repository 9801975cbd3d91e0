#include "src/transport/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
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
#include "src/transport/frame.hpp"

namespace acn::transport {
namespace {

using Clock = std::chrono::steady_clock;

/// Re-dial backoff after a failed connect: kReconnectBase * 2^failures,
/// doubling at most kReconnectMaxDoublings times.
constexpr std::chrono::milliseconds kReconnectBase{2};
constexpr int kReconnectMaxDoublings = 6;
/// A control round trip's budget: generous, since checkpoints fsync and
/// dumps ship whole stores.
constexpr std::chrono::seconds kControlTimeout{10};
/// The eventfd's epoll tag; a connection's tag is its Link's address.
constexpr std::uint64_t kWakeTag = 0;

bool fill_addr(const Endpoint& ep, sockaddr_in& addr) {
  addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(ep.port));
  return inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) == 1;
}

}  // namespace

struct TcpTransport::Impl {
  /// One call waiting for its reply.
  struct Pending {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    /// Response-leg drop, rolled at send time: a completed result is
    /// discarded and surfaced as kDropped (lost ack — handler ran).
    bool response_drop = false;
    net::CallResult<dtm::Response> result;  // a data call's outcome
    std::optional<ControlReply> reply;      // a control call's reply
    /// A control call's request, kept to re-send it once on a fresh
    /// connection if its connection dies (emptied when re-sent).
    std::vector<std::uint8_t> resend;

    void finish() {
      std::lock_guard lock(m);
      done = true;
      cv.notify_all();
    }
  };

  /// One connection to a peer, dialed on demand by the IO thread.
  struct Link {
    explicit Link(Channel plane) : plane(plane) {}
    const Channel plane;
    FrameStream stream;
    bool connecting = false;
    bool ever_connected = false;
    int dial_failures = 0;
    Clock::time_point next_dial{};               // earliest re-dial (backoff)
    std::unordered_set<std::uint64_t> inflight;  // request ids on this link
  };

  struct Peer {
    Endpoint ep;
    Link data{Channel::kData};
    Link control{Channel::kControl};
    std::mutex control_mutex;  // one control round trip at a time
  };

  TcpTransportConfig config;
  net::TransportCounters* counters = nullptr;

  int epoll_fd = -1;
  int event_fd = -1;
  std::thread io;
  std::atomic<bool> stopping{false};
  std::atomic<bool> closed{false};

  // state_mutex guards every Link, pending and local handlers.  The IO
  // thread takes it around every epoll event; a caller takes it once to
  // queue a frame.  Never held across epoll_wait or a sleep.
  mutable std::mutex state_mutex;
  std::map<net::NodeId, std::unique_ptr<Peer>> peers;  // fixed at construction
  std::unordered_map<std::uint64_t, std::shared_ptr<Pending>> pending;
  std::atomic<std::uint64_t> next_request_id{1};

  std::unordered_map<net::NodeId, Handler> locals;

  void wake() {
    std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(event_fd, &one, sizeof one);
  }

  // ---- connections (all require state_mutex) ----------------------------

  // Close `link` and fail its in-flight calls (connection loss = outcome
  // unknown = kDropped).  With `resend`, a control call not yet re-sent is
  // queued once more instead, for the fresh connection the next dial pass
  // opens.
  void close_link(Link& link, bool resend) {
    link.stream.close();
    link.connecting = false;
    for (auto it = link.inflight.begin(); it != link.inflight.end();) {
      const auto pit = pending.find(*it);
      if (pit == pending.end()) {
        it = link.inflight.erase(it);
        continue;
      }
      Pending& slot = *pit->second;
      if (resend && !slot.resend.empty()) {
        link.stream.queue(slot.resend);
        slot.resend.clear();
        ++it;
        continue;
      }
      slot.result.error = net::NetErrorCode::kDropped;
      slot.finish();
      pending.erase(pit);
      it = link.inflight.erase(it);
    }
  }

  // A connect that failed: back off, and fail the calls waiting on it.
  void dial_failed(Link& link) {
    const int doublings = std::min(link.dial_failures, kReconnectMaxDoublings);
    link.next_dial = Clock::now() + kReconnectBase * (1 << doublings);
    ++link.dial_failures;
    close_link(link, /*resend=*/false);
  }

  // Dial `link` if it has frames queued, no socket and no backoff pending.
  // The connect completes (or fails) as the socket's first event.
  void maybe_dial(const Endpoint& ep, Link& link) {
    if (link.stream.is_open() || !link.stream.has_queued()) return;
    if (Clock::now() < link.next_dial) return;
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0) {
      dial_failed(link);
      return;
    }
    sockaddr_in addr;
    if (!fill_addr(ep, addr) ||
        (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 &&
         errno != EINPROGRESS)) {
      ::close(fd);
      dial_failed(link);
      return;
    }
    link.connecting = true;
    // The hello frame goes ahead of everything queued while disconnected.
    link.stream.open(fd, epoll_fd, reinterpret_cast<std::uintptr_t>(&link),
                     encode_hello(link.plane, -1));
  }

  // The first event on a connecting link; false when the connect failed.
  bool finish_connect(Link& link, std::uint32_t events) {
    int err = 0;
    socklen_t len = sizeof err;
    getsockopt(link.stream.fd(), SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0 || (events & (EPOLLHUP | EPOLLERR))) {
      dial_failed(link);
      return false;
    }
    link.connecting = false;
    link.dial_failures = 0;
    if (link.ever_connected && link.plane == Channel::kData)
      counters->reconnects.fetch_add(1, std::memory_order_relaxed);
    link.ever_connected = true;
    return true;
  }

  // One reply payload from `link`; false poisons the connection.
  bool handle_payload(Link& link, std::span<const std::uint8_t> payload) {
    const bool data = link.plane == Channel::kData;
    try {
      const Envelope env = read_envelope(payload);
      if (env.kind != (data ? FrameKind::kResponse : FrameKind::kControlReply))
        throw dtm::CodecError("unexpected frame kind");
      const auto it = pending.find(env.id);
      if (it == pending.end()) return true;  // late: its caller gave up
      Pending& slot = *it->second;
      const auto body = payload.subspan(env.body_offset);
      if (data)
        slot.result.response = dtm::decode_response(body);
      else
        slot.reply = decode_control_reply(body);
      slot.finish();
      pending.erase(it);
      link.inflight.erase(env.id);
      return true;
    } catch (const dtm::CodecError&) {
      counters->frames_corrupt.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }

  void serve(Link& link, std::uint32_t events) {
    if (!link.stream.is_open()) return;  // closed earlier in this batch
    if (link.connecting && !finish_connect(link, events)) return;
    const bool open = link.stream.on_events(
        events, *counters, [&](std::span<const std::uint8_t> payload) {
          return handle_payload(link, payload);
        });
    if (!open) close_link(link, /*resend=*/true);
  }

  // ---- IO thread --------------------------------------------------------

  // Dial every link with queued frames, honoring backoff; returns the
  // epoll timeout (ms) that wakes the loop for the earliest backed-off one.
  int dial_pass() {
    int timeout_ms = 50;
    std::lock_guard lock(state_mutex);
    const auto now = Clock::now();
    for (auto& [id, peer] : peers) {
      for (Link* link : {&peer->data, &peer->control}) {
        maybe_dial(peer->ep, *link);
        if (link->stream.is_open() || !link->stream.has_queued()) continue;
        const auto wait_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                link->next_dial - now)
                .count();
        timeout_ms = std::min<int>(timeout_ms, std::max<int>(1, (int)wait_ms));
      }
    }
    return timeout_ms;
  }

  void io_loop() {
    epoll_event events[64];
    while (!stopping.load()) {
      const int n = epoll_wait(epoll_fd, events, 64, dial_pass());
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < n; ++i) {
        const std::uint64_t tag = events[i].data.u64;
        if (tag == kWakeTag) {
          std::uint64_t drained;
          [[maybe_unused]] ssize_t r =
              ::read(event_fd, &drained, sizeof drained);
          continue;  // the dial pass at the top of the loop does the work
        }
        std::lock_guard lock(state_mutex);
        serve(*reinterpret_cast<Link*>(tag), events[i].events);
      }
    }
  }

  // ---- caller side ------------------------------------------------------

  /// Register `slot` under `id` and queue its request `payload` on `link`,
  /// sending at once when the link is connected.  The IO thread is woken
  /// only when the link has to be dialed.
  void submit(Link& link, std::uint64_t id, std::shared_ptr<Pending> slot,
              std::span<const std::uint8_t> payload) {
    bool dial = false;
    {
      std::lock_guard lock(state_mutex);
      pending[id] = std::move(slot);
      link.inflight.insert(id);
      link.stream.queue(payload);
      if (link.stream.is_open() && !link.connecting &&
          !link.stream.flush(*counters))
        close_link(link, /*resend=*/true);
      dial = !link.stream.is_open();
    }
    if (dial) wake();
  }

  /// Wait for `slot` until `deadline`; on expiry the call unregisters
  /// itself and reports kDropped (a timeout: the transport-level analogue
  /// of the simulation's dropped response).
  void await(Link& link, std::uint64_t id, Pending& slot,
             Clock::time_point deadline) {
    std::unique_lock lock(slot.m);
    if (slot.cv.wait_until(lock, deadline, [&] { return slot.done; })) return;
    lock.unlock();
    std::lock_guard state(state_mutex);
    // Re-check under the state lock: the IO thread may have completed the
    // call between our timeout and this point.
    std::lock_guard again(slot.m);
    if (slot.done) return;
    pending.erase(id);
    link.inflight.erase(id);
    slot.done = true;
    slot.result.error = net::NetErrorCode::kDropped;
  }
};

TcpTransport::TcpTransport(std::map<net::NodeId, Endpoint> peers,
                           TcpTransportConfig config)
    : impl_(std::make_unique<Impl>()) {
  impl_->config = config;
  impl_->counters = &counters_;
  impl_->epoll_fd = epoll_create1(0);
  impl_->event_fd = eventfd(0, EFD_NONBLOCK);
  if (impl_->epoll_fd < 0 || impl_->event_fd < 0)
    throw std::runtime_error("TcpTransport: epoll/eventfd failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeTag;
  epoll_ctl(impl_->epoll_fd, EPOLL_CTL_ADD, impl_->event_fd, &ev);
  for (const auto& [id, ep] : peers) {
    auto peer = std::make_unique<Impl::Peer>();
    peer->ep = ep;
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
    impl_->close_link(peer->data, /*resend=*/false);
    impl_->close_link(peer->control, /*resend=*/false);
  }
  ::close(impl_->epoll_fd);
  ::close(impl_->event_fd);
}

void TcpTransport::register_node(net::NodeId id, Handler handler) {
  {
    std::lock_guard lock(impl_->state_mutex);
    impl_->locals[id] = std::move(handler);
  }
  faults_.set_node_down(id, false);
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
  std::vector<Impl::Link*> links(targets.size(), nullptr);
  std::vector<std::uint64_t> ids(targets.size(), 0);

  // Pre-send fault pass + local dispatch, mirroring the simulation's
  // dispatch phase.  Sends for every remote target are queued before any
  // wait, so the requests genuinely overlap on the wire.
  Nanos extra_total{0};
  std::vector<std::uint8_t> payload;  // encoded once, shared by all targets
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const net::NodeId to = targets[i];
    // A refused, partitioned or request-leg-dropped call never hits the
    // wire.
    const net::Fate fate = faults_.fate(from, to);
    if (fate.error != net::NetErrorCode::kOk) {
      out[i].error = fate.error;
      continue;
    }
    extra_total = std::max(extra_total, fate.extra_out + fate.extra_back);
    Impl::Peer* peer = nullptr;
    Handler local;
    {
      std::lock_guard lock(impl_->state_mutex);
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
      if (fate.reply_dropped) {
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
    links[i] = &peer->data;
    // The response-leg drop was rolled up front; a discarded arrival
    // surfaces as kDropped below — identical lost-ack semantics to the sim.
    slots[i] = std::make_shared<Impl::Pending>();
    slots[i]->response_drop = fate.reply_dropped;
    impl_->submit(peer->data, id, slots[i], payload);
  }

  precise_sleep_for(extra_total);

  const auto deadline = Clock::now() + impl_->config.call_timeout;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (!slots[i]) continue;
    impl_->await(*links[i], ids[i], *slots[i], deadline);
    out[i] = std::move(slots[i]->result);
    if (slots[i]->response_drop && out[i].ok()) {
      out[i].error = net::NetErrorCode::kDropped;
      out[i].response = {};
    }
  }
  return out;
}

void TcpTransport::set_node_down(net::NodeId id, bool down) {
  dtm::DtmTransport::set_node_down(id, down);
  std::lock_guard lock(impl_->state_mutex);
  const auto it = impl_->peers.find(id);
  if (it == impl_->peers.end()) return;
  Impl::Link& data = it->second->data;
  if (down) {
    impl_->close_link(data, /*resend=*/false);
  } else {
    data.dial_failures = 0;
    data.next_dial = {};
  }
}

void TcpTransport::set_partition(
    const std::vector<std::vector<net::NodeId>>& groups) {
  dtm::DtmTransport::set_partition(groups);
  // Kill the live data connections that now cross the partition (this
  // endpoint's local ids sit in the callers' groups — unlisted ones in
  // group 0, like the simulation).
  std::lock_guard lock(impl_->state_mutex);
  for (auto& [id, peer] : impl_->peers) {
    const int group = faults_.group_of(id);
    bool blocked = group != 0;
    for (const auto& [lid, h] : impl_->locals)
      if (faults_.group_of(lid) == group) blocked = false;
    if (blocked) impl_->close_link(peer->data, /*resend=*/false);
  }
}

std::optional<ControlReply> TcpTransport::control(
    net::NodeId to, const ControlRequest& req) {
  const auto it = impl_->peers.find(to);  // peers is fixed at construction
  if (it == impl_->peers.end()) return std::nullopt;
  Impl::Peer& peer = *it->second;
  std::lock_guard serial(peer.control_mutex);
  const std::uint64_t id =
      impl_->next_request_id.fetch_add(1, std::memory_order_relaxed);
  auto slot = std::make_shared<Impl::Pending>();
  slot->resend = make_payload(FrameKind::kControl, id, encode_control(req));
  impl_->submit(peer.control, id, slot, slot->resend);
  impl_->await(peer.control, id, *slot, Clock::now() + kControlTimeout);
  return std::move(slot->reply);
}

}  // namespace acn::transport
