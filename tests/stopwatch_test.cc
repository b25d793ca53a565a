#include "common/stopwatch.h"

#include <thread>

#include <gtest/gtest.h>

namespace nwc {
namespace {

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const uint64_t micros = watch.ElapsedMicros();
  EXPECT_GE(micros, 15000u);   // at least most of the sleep
  EXPECT_LT(micros, 5000000u);  // and nowhere near runaway
}

TEST(StopwatchTest, UnitsAreConsistent) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const uint64_t micros = watch.ElapsedMicros();
  const uint64_t millis = watch.ElapsedMillis();
  const double seconds = watch.ElapsedSeconds();
  EXPECT_GE(millis, micros / 1000 > 0 ? micros / 1000 - 1 : 0);
  EXPECT_NEAR(seconds, static_cast<double>(micros) * 1e-6, 0.05);
}

TEST(StopwatchTest, MonotoneNonDecreasing) {
  Stopwatch watch;
  uint64_t previous = 0;
  for (int i = 0; i < 100; ++i) {
    const uint64_t now = watch.ElapsedMicros();
    EXPECT_GE(now, previous);
    previous = now;
  }
}

}  // namespace
}  // namespace nwc
