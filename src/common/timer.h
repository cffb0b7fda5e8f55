#ifndef SPOT_COMMON_TIMER_H_
#define SPOT_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace spot {

/// `t` (default: now) in microseconds on the process-wide steady clock,
/// anchored at its first use (earlier instants read 0). The shared
/// timebase of every trace span (reactor pipeline stages, engine shard
/// probes), so spans recorded by different threads land on one comparable
/// axis in the flight-recorder dump.
inline std::uint64_t SteadyMicrosSinceStart(
    std::chrono::steady_clock::time_point t =
        std::chrono::steady_clock::now()) {
  static const std::chrono::steady_clock::time_point anchor = t;
  if (t <= anchor) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t - anchor)
          .count());
}

/// Monotonic wall-clock stopwatch used by the throughput harness.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed milliseconds since construction or the last Reset().
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace spot

#endif  // SPOT_COMMON_TIMER_H_
