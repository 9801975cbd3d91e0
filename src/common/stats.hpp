// Lightweight statistics utilities used by the DTM runtime and the
// benchmark harness: log-bucketed latency histograms and per-interval
// throughput series (the unit the paper's Figure 4 plots).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace acn {

/// Histogram with power-of-two buckets over [1, 2^63).  Suitable for
/// nanosecond latencies.  add() is wait-free; percentile() is approximate
/// (bucket upper bound).
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 64;

  void add(std::uint64_t value_ns) noexcept;
  std::uint64_t count() const noexcept;
  /// q in [0, 1]; returns the upper bound of the bucket containing the
  /// q-quantile, or 0 when empty.
  std::uint64_t percentile(double q) const noexcept;
  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

/// Committed-operations-per-interval counter: the harness opens one slot
/// per measurement interval and client threads bump the slot for the
/// interval in which their transaction committed.
class IntervalSeries {
 public:
  explicit IntervalSeries(std::size_t intervals);

  void add(std::size_t interval, std::uint64_t delta = 1) noexcept;
  std::uint64_t at(std::size_t interval) const noexcept;
  std::size_t size() const noexcept { return slots_.size(); }
  std::vector<std::uint64_t> snapshot() const;

 private:
  std::vector<std::atomic<std::uint64_t>> slots_;
};

}  // namespace acn
