#include "src/transport/frame.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "src/net/transport.hpp"
#include "src/wal/format.hpp"

namespace acn::transport {
namespace {

std::uint32_t load_u32(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;  // little-endian hosts only, same assumption as the codec
}

void set_nodelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

bool FrameReader::feed(std::span<const std::uint8_t> bytes) {
  if (poisoned_) return false;
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  for (;;) {
    const std::size_t avail = buffer_.size() - consumed_;
    if (avail < wal::kFrameHeaderBytes) break;
    const std::uint8_t* head = buffer_.data() + consumed_;
    const std::size_t length = load_u32(head);
    if (length > max_payload_) {
      poisoned_ = true;
      return false;
    }
    if (avail < wal::kFrameHeaderBytes + length) break;  // partial frame
    const std::uint32_t want_crc = load_u32(head + 4);
    const std::span<const std::uint8_t> payload{head + wal::kFrameHeaderBytes,
                                                length};
    if (wal::crc32(payload) != want_crc) {
      poisoned_ = true;
      return false;
    }
    ready_.emplace_back(payload.begin(), payload.end());
    consumed_ += wal::kFrameHeaderBytes + length;
  }
  // Compact once the decoded prefix dominates, so a long-lived connection
  // does not grow its buffer without bound.
  if (consumed_ > 0 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  return true;
}

std::vector<std::vector<std::uint8_t>> FrameReader::take() {
  return std::exchange(ready_, {});
}

void FrameStream::open(int fd, int epoll_fd, std::uint64_t tag,
                       std::span<const std::uint8_t> hello) {
  fd_ = fd;
  epoll_fd_ = epoll_fd;
  tag_ = tag;
  set_nodelay(fd_);
  if (!hello.empty()) {
    std::vector<std::uint8_t> framed;
    wal::frame_record(framed, hello);
    wbuf_.insert(wbuf_.begin(), framed.begin(), framed.end());
  }
  watch_writes(has_queued());
}

void FrameStream::close() {
  if (fd_ >= 0) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd_, nullptr);
    ::close(fd_);
    fd_ = -1;
  }
  events_ = 0;
  reader_ = FrameReader();
  wbuf_.clear();
  woff_ = 0;
}

void FrameStream::queue(std::span<const std::uint8_t> payload) {
  wal::frame_record(wbuf_, payload);
}

bool FrameStream::flush(net::TransportCounters& counters) {
  while (woff_ < wbuf_.size()) {
    const ssize_t n = ::send(fd_, wbuf_.data() + woff_, wbuf_.size() - woff_,
                             MSG_NOSIGNAL);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) return false;
    woff_ += static_cast<std::size_t>(n);
    counters.bytes_sent.fetch_add(static_cast<std::uint64_t>(n),
                                  std::memory_order_relaxed);
  }
  if (woff_ == wbuf_.size()) {
    wbuf_.clear();
    woff_ = 0;
  }
  watch_writes(has_queued());
  return true;
}

bool FrameStream::on_events(std::uint32_t events,
                            net::TransportCounters& counters,
                            const PayloadFn& on_payload) {
  if ((events & EPOLLOUT) && !flush(counters)) return false;
  if (events & (EPOLLIN | EPOLLHUP | EPOLLERR))
    return receive(counters, on_payload);
  return true;
}

bool FrameStream::receive(net::TransportCounters& counters,
                          const PayloadFn& on_payload) {
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n <= 0) return false;  // EOF or a hard error
    counters.bytes_recv.fetch_add(static_cast<std::uint64_t>(n),
                                  std::memory_order_relaxed);
    const bool intact = reader_.feed({buf, static_cast<std::size_t>(n)});
    for (const auto& payload : reader_.take())
      if (!on_payload(payload)) return false;
    if (!intact) {
      counters.frames_corrupt.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
}

void FrameStream::watch_writes(bool on) {
  const std::uint32_t events = EPOLLIN | (on ? EPOLLOUT : 0u);
  if (events == events_) return;
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = tag_;
  epoll_ctl(epoll_fd_, events_ == 0 ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, fd_, &ev);
  events_ = events;
}

}  // namespace acn::transport
