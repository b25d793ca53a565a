#include "common/stopwatch.h"

namespace nwc {

Stopwatch::Stopwatch() : start_(std::chrono::steady_clock::now()) {}

uint64_t Stopwatch::ElapsedMicros() const {
  const auto delta = std::chrono::steady_clock::now() - start_;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(delta).count());
}

uint64_t Stopwatch::ElapsedMillis() const { return ElapsedMicros() / 1000; }

double Stopwatch::ElapsedSeconds() const { return static_cast<double>(ElapsedMicros()) * 1e-6; }

}  // namespace nwc
