#include "src/common/clock.hpp"

#include <thread>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

namespace acn {

void tighten_timer_slack() noexcept {
#if defined(__linux__)
  thread_local const bool tightened =
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL) == 0;
  (void)tightened;
#endif
}

void precise_sleep_until(SteadyClock::time_point deadline) noexcept {
  tighten_timer_slack();
  std::this_thread::sleep_until(deadline);
}

void precise_sleep_for(std::chrono::nanoseconds d) noexcept {
  if (d <= std::chrono::nanoseconds{0}) return;
  precise_sleep_until(SteadyClock::now() + d);
}

}  // namespace acn
