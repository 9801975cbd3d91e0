#include "src/net/net_stats.hpp"

#include <cstdio>

namespace acn::net {

void NetStats::reset() noexcept {
  messages_.store(0, std::memory_order_relaxed);
  bytes_.store(0, std::memory_order_relaxed);
  drops_.store(0, std::memory_order_relaxed);
  response_drops_.store(0, std::memory_order_relaxed);
  refused_.store(0, std::memory_order_relaxed);
  partitioned_.store(0, std::memory_order_relaxed);
  delay_rounds_.store(0, std::memory_order_relaxed);
  delay_requested_ns_.store(0, std::memory_order_relaxed);
  delay_actual_ns_.store(0, std::memory_order_relaxed);
}

std::string NetStats::summary() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "messages=%llu bytes=%llu drops=%llu response_drops=%llu "
                "refused=%llu partitioned=%llu delay_rounds=%llu "
                "delay_requested_ns=%llu delay_actual_ns=%llu",
                static_cast<unsigned long long>(messages()),
                static_cast<unsigned long long>(bytes()),
                static_cast<unsigned long long>(drops()),
                static_cast<unsigned long long>(response_drops()),
                static_cast<unsigned long long>(refused()),
                static_cast<unsigned long long>(partitioned()),
                static_cast<unsigned long long>(delay_rounds()),
                static_cast<unsigned long long>(delay_requested_ns()),
                static_cast<unsigned long long>(delay_actual_ns()));
  return buf;
}

}  // namespace acn::net
