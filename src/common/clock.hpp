// Monotonic-clock helpers shared by the runtime and the harness, and the one
// sleeper every simulated wait goes through.
#pragma once

#include <chrono>
#include <cstdint>

namespace acn {

using SteadyClock = std::chrono::steady_clock;

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          SteadyClock::now().time_since_epoch())
          .count());
}

/// Simple scoped stopwatch.
class Stopwatch {
 public:
  Stopwatch() noexcept : start_(now_ns()) {}
  void restart() noexcept { start_ = now_ns(); }
  std::uint64_t elapsed_ns() const noexcept { return now_ns() - start_; }
  double elapsed_s() const noexcept {
    return static_cast<double>(elapsed_ns()) * 1e-9;
  }

 private:
  std::uint64_t start_;
};

// ---- the sleeper --------------------------------------------------------
//
// Simulated latency, retry backoff and think time are all timed sleeps of
// tens of microseconds.  Linux adds the thread's *timer slack* (50 us by
// default) to every timed wait so it can coalesce wake-ups, which alone
// stretches a 25 us simulated leg to ~80 us.  Every simulated wait therefore
// sleeps through precise_sleep_until(), which lowers the calling thread's
// slack to 1 ns the first time that thread sleeps and then sleeps until a
// steady-clock deadline (no busy-waiting: the thread is off the CPU until
// the kernel wakes it).  Slack is per thread, so later condition-variable
// waits on the same thread are tight too; threads that only ever wait on
// condition variables call tighten_timer_slack() when they start.

/// Lower this thread's timer slack to 1 ns, once per thread (a no-op after
/// the first call, and off Linux).  1, not 0: zero means "reset to the
/// default".
void tighten_timer_slack() noexcept;

/// Sleep until `deadline` on the steady clock; returns at once when it
/// has passed.  Tightens the thread's timer slack on first use.
void precise_sleep_until(SteadyClock::time_point deadline) noexcept;

/// precise_sleep_until(now + d); a zero or negative `d` returns without a
/// system call.
void precise_sleep_for(std::chrono::nanoseconds d) noexcept;

}  // namespace acn
