#include "common/clock.h"

#include <errno.h>
#include <time.h>
#if defined(__linux__)
#include <sys/prctl.h>
#endif

namespace tierbase {

Clock* Clock::Real() {
  static RealClock clock;
  return &clock;
}

void SleepNanos(uint64_t ns) {
  if (ns == 0) return;
#if defined(__linux__)
  thread_local bool slack_set = false;
  if (!slack_set) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    slack_set = true;
  }
#endif
  constexpr uint64_t kNanosPerSecond = 1000000000;
  timespec deadline{};
  clock_gettime(CLOCK_MONOTONIC, &deadline);
  const uint64_t nsec =
      static_cast<uint64_t>(deadline.tv_nsec) + ns % kNanosPerSecond;
  deadline.tv_sec += static_cast<time_t>(ns / kNanosPerSecond +
                                         nsec / kNanosPerSecond);
  deadline.tv_nsec = static_cast<long>(nsec % kNanosPerSecond);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &deadline,
                         nullptr) == EINTR) {
  }
}

}  // namespace tierbase
