#include "src/transport/frame.hpp"

#include <cstring>
#include <utility>

#include "src/wal/format.hpp"

namespace acn::transport {
namespace {

std::uint32_t load_u32(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;  // little-endian hosts only, same assumption as the codec
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

}  // namespace acn::transport
