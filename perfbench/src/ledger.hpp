// Counters and timestamped samples the benchmark's wrappers record into.
//
// Every thread that passes through a wrapper (client threads, epoch-lane
// threads, the main thread) owns one cache-line-aligned slot of counters,
// so recording never contends.  A sampler thread sums the slots at the
// edges of the measured window; the difference of the two sums is what the
// window did.  Samples (latencies, admission waits, WAL commit times) keep
// their end timestamp so they can be cut to the same window afterwards.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace perfbench {

/// Request kinds of dtm::Request, in variant index order.
inline constexpr std::size_t kDtmKinds = 8;
inline constexpr const char* kDtmKindNames[kDtmKinds] = {
    "read", "validate", "prepare", "commit",
    "abort", "contention", "batched_read", "decision"};

enum Counter : std::size_t {
  kTxAttempted,
  kTxCommitted,
  kTxFailed,
  kTxWallNs,
  kTxCpuNs,
  kInlineHandlerNs,   // handler time on the client thread, inside a tx
  kInlineWalNs,       // WAL time inside those handlers
  kLaneHandlerNs,     // handler time on threads outside any tx (the lane)
  kExecCommits,       // ExecStats deltas, summed over transactions
  kFullAborts,
  kPartialAborts,
  kOps,
  kBlocks,
  kAdmits,
  kAdmitsHot,
  kAdmitWaitNs,
  kLaneSubmits,
  kLaneWaitNs,
  kWalPrepares,
  kWalPrepareNs,
  kWalCommits,
  kWalCommitNs,
  kWalAbortNs,
  kSnapshots,
  kSnapshotNs,
  kDtmWalNs,          // WAL time inside any handler
  kDtmCalls,          // + request kind
  kDtmBusyNs = kDtmCalls + kDtmKinds,
  kDtmRefused = kDtmBusyNs + kDtmKinds,
  kCounterCount = kDtmRefused + kDtmKinds,
};

enum Series : std::size_t { kLatency, kAdmitWait, kWalCommit, kSeriesCount };

using Totals = std::array<std::uint64_t, kCounterCount>;

/// (end timestamp ns, value ns)
using Sample = std::pair<std::uint64_t, std::uint64_t>;

class Ledger {
 public:
  void add(Counter counter, std::uint64_t value) noexcept {
    local().counters[counter].fetch_add(value, std::memory_order_relaxed);
  }

  void record(Series series, std::uint64_t end_ns, std::uint64_t value_ns) {
    local().samples[series].emplace_back(end_ns, value_ns);
  }

  /// Sum of every thread's counters (safe while threads record).
  Totals totals() const {
    Totals out{};
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& slot : slots_)
      for (std::size_t c = 0; c < kCounterCount; ++c)
        out[c] += slot->counters[c].load(std::memory_order_relaxed);
    return out;
  }

  /// Values of `series` whose end falls in [from, to).  Call only once the
  /// recording threads are quiescent.
  std::vector<std::uint64_t> window(Series series, std::uint64_t from,
                                    std::uint64_t to) const {
    std::vector<std::uint64_t> out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& slot : slots_)
      for (const auto& [end, value] : slot->samples[series])
        if (end >= from && end < to) out.push_back(value);
    return out;
  }

  /// Drop every sample (between runs; threads must be quiescent).
  void clear_samples() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& slot : slots_)
      for (auto& series : slot->samples) series.clear();
  }

 private:
  struct alignas(64) Slot {
    std::array<std::atomic<std::uint64_t>, kCounterCount> counters{};
    std::array<std::vector<Sample>, kSeriesCount> samples;
  };

  Slot& local() {
    thread_local Slot* slot = nullptr;
    thread_local const Ledger* owner = nullptr;
    if (owner != this) {
      auto fresh = std::make_unique<Slot>();
      slot = fresh.get();
      owner = this;
      std::lock_guard<std::mutex> lock(mutex_);
      slots_.push_back(std::move(fresh));
    }
    return *slot;
  }

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

/// Index of the nearest-rank `q` percentile among `n` sorted values.
inline std::size_t percentile_rank(std::size_t n, double q) {
  const double pos = std::ceil(q * static_cast<double>(n));
  return pos < 1.0 ? 0 : std::min(n, static_cast<std::size_t>(pos)) - 1;
}

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
inline std::uint64_t percentile(std::vector<std::uint64_t>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[percentile_rank(values.size(), q)];
}

}  // namespace perfbench
