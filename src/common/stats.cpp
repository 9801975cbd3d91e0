#include "src/common/stats.hpp"

#include <algorithm>
#include <bit>

namespace acn {

void LatencyHistogram::add(std::uint64_t value_ns) noexcept {
  const int bucket = value_ns == 0 ? 0 : 64 - std::countl_zero(value_ns);
  buckets_[std::min(bucket, kBuckets - 1)].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t LatencyHistogram::percentile(double q) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(total - 1)) + 1;
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= target) return i == 0 ? 1 : (1ULL << i);
  }
  return ~0ULL;
}

void LatencyHistogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

IntervalSeries::IntervalSeries(std::size_t intervals) : slots_(intervals) {}

void IntervalSeries::add(std::size_t interval, std::uint64_t delta) noexcept {
  if (interval < slots_.size())
    slots_[interval].fetch_add(delta, std::memory_order_relaxed);
}

std::uint64_t IntervalSeries::at(std::size_t interval) const noexcept {
  return interval < slots_.size() ? slots_[interval].load(std::memory_order_relaxed)
                                  : 0;
}

std::vector<std::uint64_t> IntervalSeries::snapshot() const {
  std::vector<std::uint64_t> out(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) out[i] = at(i);
  return out;
}

}  // namespace acn
