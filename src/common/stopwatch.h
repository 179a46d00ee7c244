// Wall-clock stopwatch used by the runtime to measure per-batch processing
// cost and by the benchmark harness.

#ifndef CAESAR_COMMON_STOPWATCH_H_
#define CAESAR_COMMON_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace caesar {

// Measures elapsed wall time with steady_clock. Started on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  // Elapsed time since construction or the last Lap().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  // Elapsed time since the last start, then restarts: one clock read
  // splits back-to-back intervals.
  double Lap() {
    const Clock::time_point now = Clock::now();
    const double seconds = std::chrono::duration<double>(now - start_).count();
    start_ = now;
    return seconds;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace caesar

#endif  // CAESAR_COMMON_STOPWATCH_H_
