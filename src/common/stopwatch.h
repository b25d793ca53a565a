#ifndef NWC_COMMON_STOPWATCH_H_
#define NWC_COMMON_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace nwc {

/// Wall-clock stopwatch for coarse timing in benchmark drivers and examples.
/// (The reproduction metric is simulated I/O, not time; this exists for the
/// wall-time columns the micro-benchmarks print alongside.)
class Stopwatch {
 public:
  /// Starts the stopwatch.
  Stopwatch();

  /// Elapsed time since construction, in microseconds.
  uint64_t ElapsedMicros() const;

  /// Elapsed time in milliseconds (integer division of microseconds).
  uint64_t ElapsedMillis() const;

  /// Elapsed time in seconds as a double.
  double ElapsedSeconds() const;

 private:
  std::chrono::steady_clock::time_point start_;
};

/// The steady clock as absolute microseconds. Two reads anywhere in the
/// process (even on different threads) subtract meaningfully — the serving
/// layer's trace timestamps and the load generator's due times both live
/// on this axis.
inline uint64_t SteadyNowMicros() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

}  // namespace nwc

#endif  // NWC_COMMON_STOPWATCH_H_
