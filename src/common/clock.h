// Clocks: a real monotonic clock for measurement and a manual clock for
// deterministic tests (TTL expiry, write-back flush intervals, elastic
// threading decisions).

#ifndef TIERBASE_COMMON_CLOCK_H_
#define TIERBASE_COMMON_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

namespace tierbase {

/// Abstract microsecond clock.
class Clock {
 public:
  virtual ~Clock() = default;
  /// Monotonic microseconds since an arbitrary epoch.
  virtual uint64_t NowMicros() const = 0;
  virtual void SleepMicros(uint64_t micros) const = 0;

  /// Process-wide real clock singleton.
  static Clock* Real();
};

/// Steady-clock backed implementation.
class RealClock : public Clock {
 public:
  uint64_t NowMicros() const override {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
  void SleepMicros(uint64_t micros) const override {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }
};

/// Test clock advanced explicitly; SleepMicros advances it.
class ManualClock : public Clock {
 public:
  explicit ManualClock(uint64_t start_micros = 0) : now_(start_micros) {}

  uint64_t NowMicros() const override {
    return now_.load(std::memory_order_acquire);
  }
  void SleepMicros(uint64_t micros) const override {
    const_cast<ManualClock*>(this)->Advance(micros);
  }
  void Advance(uint64_t micros) {
    now_.fetch_add(micros, std::memory_order_acq_rel);
  }
  void Set(uint64_t micros) { now_.store(micros, std::memory_order_release); }

 private:
  std::atomic<uint64_t> now_;
};

/// Test clock that moves `step` micros every time it is read, so code
/// that reads it twice in one decision sees two different instants.
class SteppingClock : public Clock {
 public:
  SteppingClock(uint64_t start_micros, uint64_t step)
      : now_(start_micros), step_(step) {}

  uint64_t NowMicros() const override {
    return now_.fetch_add(step_, std::memory_order_acq_rel) + step_;
  }
  void SleepMicros(uint64_t micros) const override {
    now_.fetch_add(micros, std::memory_order_acq_rel);
  }

 private:
  mutable std::atomic<uint64_t> now_;
  const uint64_t step_;
};

/// Busy-waits for approximately `ns` nanoseconds. Used to model per-op CPU
/// overhead of emulated systems and simulated device latencies — sleep
/// syscalls are far too coarse at these scales.
inline void BusySpinNanos(uint64_t ns) {
  if (ns == 0) return;
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < deadline) {
  }
}

/// Simple stopwatch over a Clock.
class Stopwatch {
 public:
  explicit Stopwatch(const Clock* clock = Clock::Real())
      : clock_(clock), start_(clock->NowMicros()) {}
  void Reset() { start_ = clock_->NowMicros(); }
  uint64_t ElapsedMicros() const { return clock_->NowMicros() - start_; }
  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedMicros()) / 1e6;
  }

 private:
  const Clock* clock_;
  uint64_t start_;
};

}  // namespace tierbase

#endif  // TIERBASE_COMMON_CLOCK_H_
