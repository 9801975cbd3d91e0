// Randomized-exponential-backoff retry policy.
//
// One struct owns the retry constants that used to be hard-coded in the
// quorum stub's busy ladder (base delay, doubling with a cap, full-range
// jitter) so every layer that backs off — the stub's busy retries, the
// executor's full-restart backoff, the epoch lane's re-runs, the in-doubt
// resolver and the scheduler's admission pacing — shares the same
// documented shape instead of re-deriving it:
//
//   delay(attempt) = shifted + U[0, jitter * shifted],
//   shifted        = base << min(attempt, max_doublings).
//
// `attempt` counts from 0; with the defaults the un-jittered delay doubles
// six times and then plateaus at 64x base, and the jitter term spreads
// concurrent retriers across one extra delay-width to break synchronized
// convoys.  All fields are plain data so configs can embed and tweak them.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "src/common/rng.hpp"

namespace acn {

struct RetryPolicy {
  /// Retries before the caller surfaces the failure (meaningful where the
  /// policy gates a bounded ladder; pacing-only users ignore it).
  int max_retries = 10;
  /// Un-jittered delay of attempt 0.
  std::chrono::nanoseconds base{std::chrono::microseconds{50}};
  /// Doublings before the exponential plateaus (attempt is clamped here).
  int max_doublings = 6;
  /// Jitter fraction: the random addend is uniform in [0, jitter*shifted].
  /// 0 disables jitter (deterministic tests); 1 is the classic full-range
  /// decorrelation the stub has always used.
  double jitter = 1.0;

  /// Backoff delay for `attempt` (0-based) without the jitter term: the
  /// whole delay of a policy whose `jitter` is 0.
  std::chrono::nanoseconds delay(int attempt) const noexcept {
    return base * (std::int64_t{1}
                   << std::min(std::max(attempt, 0), max_doublings));
  }

  /// Backoff delay for `attempt` (0-based), jittered through `rng`.
  std::chrono::nanoseconds delay(int attempt, Rng& rng) const noexcept {
    const std::int64_t shifted = delay(attempt).count();
    std::int64_t jittered = 0;
    if (jitter > 0.0 && shifted > 0) {
      const auto span = static_cast<std::uint64_t>(
          jitter * static_cast<double>(shifted));
      if (span > 0)
        jittered = static_cast<std::int64_t>(rng.uniform(0, span));
    }
    return std::chrono::nanoseconds{shifted + jittered};
  }
};

}  // namespace acn
