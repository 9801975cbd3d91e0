// Message accounting for the simulated network.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace acn::net {

/// Aggregate wire statistics.  All counters are relaxed atomics; values are
/// read for reporting only.  Every sender writes them on every message, so
/// they get cache lines of their own: sharing one with the fields a sender
/// reads (the handler table, the fault flag) stalls every client thread.
class alignas(64) NetStats {
 public:
  void on_message(std::size_t bytes) noexcept {
    messages_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void on_drop() noexcept { drops_.fetch_add(1, std::memory_order_relaxed); }
  void on_response_drop() noexcept {
    response_drops_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_refused() noexcept { refused_.fetch_add(1, std::memory_order_relaxed); }
  void on_partitioned() noexcept {
    partitioned_.fetch_add(1, std::memory_order_relaxed);
  }
  /// One round that injected delay: it asked to wait `requested_ns` past
  /// its start and woke `actual_ns` after it.
  void on_delay(std::uint64_t requested_ns, std::uint64_t actual_ns) noexcept {
    delay_rounds_.fetch_add(1, std::memory_order_relaxed);
    delay_requested_ns_.fetch_add(requested_ns, std::memory_order_relaxed);
    delay_actual_ns_.fetch_add(actual_ns, std::memory_order_relaxed);
  }

  std::uint64_t messages() const noexcept {
    return messages_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }
  /// Request-leg drops (the handler never ran).
  std::uint64_t drops() const noexcept {
    return drops_.load(std::memory_order_relaxed);
  }
  /// Response-leg drops (the handler ran; the ack was lost).
  std::uint64_t response_drops() const noexcept {
    return response_drops_.load(std::memory_order_relaxed);
  }
  std::uint64_t refused() const noexcept {
    return refused_.load(std::memory_order_relaxed);
  }
  std::uint64_t partitioned() const noexcept {
    return partitioned_.load(std::memory_order_relaxed);
  }
  /// Rounds (call or multicall) that injected delay.  Zero-latency rounds
  /// never sleep and are not counted.
  std::uint64_t delay_rounds() const noexcept {
    return delay_rounds_.load(std::memory_order_relaxed);
  }
  /// Sum over those rounds of deadline - start: what the latency model and
  /// the handlers asked for.
  std::uint64_t delay_requested_ns() const noexcept {
    return delay_requested_ns_.load(std::memory_order_relaxed);
  }
  /// Sum over those rounds of wake-up - start: what the caller waited.
  std::uint64_t delay_actual_ns() const noexcept {
    return delay_actual_ns_.load(std::memory_order_relaxed);
  }

  void reset() noexcept;
  std::string summary() const;

 private:
  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> response_drops_{0};
  std::atomic<std::uint64_t> refused_{0};
  std::atomic<std::uint64_t> partitioned_{0};
  std::atomic<std::uint64_t> delay_rounds_{0};
  std::atomic<std::uint64_t> delay_requested_ns_{0};
  std::atomic<std::uint64_t> delay_actual_ns_{0};
};

}  // namespace acn::net
