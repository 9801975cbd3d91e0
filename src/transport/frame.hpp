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
#pragma once

#include <cstdint>
#include <span>
#include <vector>

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

}  // namespace acn::transport
