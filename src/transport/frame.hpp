// TCP stream framing for the real transport.
//
// Wire format, the WAL's record framing (src/wal/format.hpp):
//
//   [u32 payload length][u32 crc32(payload)][payload]     little-endian
//
// so one frame idiom covers disk and wire: senders frame a payload with
// wal::frame_record, and FrameReader below decodes the stream.  The
// payload's first bytes are a small envelope decoded by
// src/transport/wire.hpp:
//
//   [u8 kind][u64 id][kind-specific body]
//
// Unlike wal::parse_segment (a batch scan that tolerates a torn tail —
// crashes legitimately truncate log files), the stream reader treats any
// malformed frame as fatal for its connection: an oversized length prefix
// or a CRC mismatch means the peer is broken or the stream lost sync, and
// the only safe recovery is to drop the connection and re-dial.  The
// reader is incremental (feed() accepts arbitrary byte slices, frames
// surface as their last byte arrives) and never reads past the bytes it
// was given.
//
// FrameStream is the one way frames move over a socket: a non-blocking
// connection, its FrameReader and its write queue, watched on an epoll
// set.  TcpServer connections and both of a TcpTransport peer's
// connections (data and control) are FrameStreams, so the send loop, the
// receive loop and their byte / corruption counting exist once.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace acn::net {
struct TransportCounters;
}

namespace acn::transport {

/// Hard ceiling on one frame's payload.  Generous for this protocol (the
/// largest messages are store dumps in control replies) while keeping a
/// corrupted length prefix from looking like a multi-gigabyte allocation.
constexpr std::size_t kMaxFramePayload = 64u << 20;  // 64 MiB

/// Incremental frame decoder for one connection's byte stream.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  /// Consume `bytes` from the stream.  Returns false when the stream is
  /// poisoned — an oversized length prefix or a CRC mismatch — after which
  /// the connection must be closed (feed() keeps returning false and
  /// surfaces no further frames).
  bool feed(std::span<const std::uint8_t> bytes);

  /// Complete payloads decoded so far, in stream order (moved out).
  std::vector<std::vector<std::uint8_t>> take();

  bool poisoned() const noexcept { return poisoned_; }
  /// Frames rejected (0 or 1 — the first corrupt frame kills the stream).
  std::size_t corrupt_frames() const noexcept { return poisoned_ ? 1 : 0; }

 private:
  std::size_t max_payload_;
  bool poisoned_ = false;
  std::vector<std::uint8_t> buffer_;  // undecoded tail of the stream
  std::size_t consumed_ = 0;          // decoded prefix of buffer_
  std::vector<std::vector<std::uint8_t>> ready_;
};

/// One connection's frame stream.  Not thread-safe: its owner serializes
/// every call (TcpServer on its IO thread, TcpTransport under its state
/// lock).  The destructor closes the socket.
class FrameStream {
 public:
  /// Handles one payload; false finishes the connection.
  using PayloadFn = std::function<bool(std::span<const std::uint8_t>)>;

  FrameStream() = default;
  ~FrameStream() { close(); }
  FrameStream(const FrameStream&) = delete;
  FrameStream& operator=(const FrameStream&) = delete;

  /// Adopt the non-blocking socket `fd` (connected, or with its connect in
  /// progress) into a closed stream, set TCP_NODELAY and watch it on
  /// `epoll_fd`, whose events carry `tag`.  A non-empty `hello` is framed
  /// ahead of everything already queued.
  void open(int fd, int epoll_fd, std::uint64_t tag,
            std::span<const std::uint8_t> hello = {});
  /// Close the socket (if open) and drop the write queue and any partial
  /// frame.
  void close();

  bool is_open() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }
  bool has_queued() const noexcept { return woff_ < wbuf_.size(); }

  /// Frame `payload` onto the write queue.  Also valid while closed: the
  /// frame goes out once a socket is open.
  void queue(std::span<const std::uint8_t> payload);
  /// Send until the queue is empty or the socket would block, counting
  /// bytes_sent.  False: the connection failed.
  bool flush(net::TransportCounters& counters);
  /// React to the epoll `events` reported for this stream: flush on
  /// writability, then receive on readability, a hang-up or an error.
  /// False: the connection is finished (see flush and receive).
  bool on_events(std::uint32_t events, net::TransportCounters& counters,
                 const PayloadFn& on_payload);

 private:
  /// Read until the socket would block, counting bytes_recv, and hand each
  /// complete payload to `on_payload` in stream order.  False: the
  /// connection is finished — EOF, a socket error, a corrupt frame
  /// (counted in frames_corrupt) or `on_payload` returning false.  The
  /// payloads that arrived before the end are delivered first.
  bool receive(net::TransportCounters& counters, const PayloadFn& on_payload);
  /// Watch for writability only while frames wait in the queue.
  void watch_writes(bool on);

  int fd_ = -1;
  int epoll_fd_ = -1;
  std::uint64_t tag_ = 0;
  std::uint32_t events_ = 0;  // current epoll interest; 0 = not registered
  FrameReader reader_;
  std::vector<std::uint8_t> wbuf_;
  std::size_t woff_ = 0;  // bytes of wbuf_ already sent
};

}  // namespace acn::transport
