// QueryControl unit tests: the disarmed fast path, each of the three stop
// sources (deadline on the real and injected clocks, cancel-cell epochs,
// reported faults), their priority and stickiness, and the NullControl
// shared instance. These are the contracts the engines rely on to turn a
// truncated search into a typed error instead of a wrong answer.

#include "common/cancel.h"

#include <atomic>
#include <chrono>
#include <utility>

#include <gtest/gtest.h>

#include "common/status.h"

namespace nwc {
namespace {

TEST(QueryControlTest, DefaultConstructedIsDisarmedAndNeverStops) {
  QueryControl control;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(control.ShouldStop());
  }
  EXPECT_FALSE(control.stopped());
  EXPECT_TRUE(control.status().ok());
}

TEST(QueryControlTest, FarFutureDeadlineDoesNotStop) {
  QueryControl control;
  control.SetDeadline(std::chrono::steady_clock::now() + std::chrono::minutes(1));
  EXPECT_FALSE(control.ShouldStop());
  EXPECT_FALSE(control.stopped());
  EXPECT_TRUE(control.status().ok());
}

TEST(QueryControlTest, PastDeadlineStopsWithDeadlineExceeded) {
  QueryControl control;
  control.SetDeadline(std::chrono::steady_clock::now() - std::chrono::milliseconds(1));
  EXPECT_TRUE(control.ShouldStop());
  EXPECT_TRUE(control.stopped());
  EXPECT_EQ(control.status().code(), StatusCode::kDeadlineExceeded);
  // Sticky: once stopped, every later checkpoint stops immediately.
  EXPECT_TRUE(control.ShouldStop());
  EXPECT_EQ(control.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(QueryControlTest, InjectedClockDeadlineIsDeterministic) {
  uint64_t now_ns = 0;
  QueryControl control;
  control.SetClock([&now_ns] { return now_ns; });
  control.SetClockDeadlineNs(1000);

  EXPECT_FALSE(control.ShouldStop());
  now_ns = 999;
  EXPECT_FALSE(control.ShouldStop());
  now_ns = 1000;  // deadline is inclusive (now >= deadline stops)
  EXPECT_TRUE(control.ShouldStop());
  EXPECT_EQ(control.status().code(), StatusCode::kDeadlineExceeded);

  // The clock moving backwards after the stop changes nothing (sticky).
  now_ns = 0;
  EXPECT_TRUE(control.ShouldStop());
}

TEST(QueryControlTest, CancelCellStopsWhenEpochMoves) {
  std::atomic<uint64_t> epoch{7};
  QueryControl control;
  control.SetCancelCell(&epoch, 7);

  EXPECT_FALSE(control.ShouldStop());
  epoch.store(8, std::memory_order_relaxed);
  EXPECT_TRUE(control.ShouldStop());
  EXPECT_EQ(control.status().code(), StatusCode::kCancelled);

  // The epoch returning to the expected value does not un-cancel.
  epoch.store(7, std::memory_order_relaxed);
  EXPECT_TRUE(control.ShouldStop());
  EXPECT_EQ(control.status().code(), StatusCode::kCancelled);
}

TEST(QueryControlTest, ReportFaultIsStickyAndFirstWins) {
  QueryControl control;
  EXPECT_FALSE(control.stopped());

  control.ReportFault(Status::IoError("first fault"));
  EXPECT_TRUE(control.stopped());  // immediate, before any checkpoint
  EXPECT_TRUE(control.ShouldStop());
  EXPECT_EQ(control.status().code(), StatusCode::kIoError);
  EXPECT_EQ(control.status().message(), "first fault");

  control.ReportFault(Status::IoError("second fault"));
  EXPECT_EQ(control.status().message(), "first fault") << "first report wins";
}

TEST(QueryControlTest, ReportFaultIgnoresOkStatus) {
  QueryControl control;
  control.ReportFault(Status::Ok());
  EXPECT_FALSE(control.stopped());
  EXPECT_FALSE(control.ShouldStop());
  EXPECT_TRUE(control.status().ok());
}

TEST(QueryControlTest, FaultTakesPriorityOverExpiredDeadline) {
  // A fault reported before the next checkpoint wins even when the
  // deadline has also expired by then: the engine surfaces the root cause.
  QueryControl control;
  control.SetDeadline(std::chrono::steady_clock::now() - std::chrono::milliseconds(1));
  control.ReportFault(Status::IoError("injected"));
  EXPECT_TRUE(control.ShouldStop());
  EXPECT_EQ(control.status().code(), StatusCode::kIoError);
}

TEST(QueryControlTest, CancelCellCheckedBeforeDeadline) {
  std::atomic<uint64_t> epoch{0};
  uint64_t now_ns = 10;  // already past the clock deadline
  QueryControl control;
  control.SetClock([&now_ns] { return now_ns; });
  control.SetClockDeadlineNs(5);
  control.SetCancelCell(&epoch, 1);  // epoch already moved: cancelled
  EXPECT_TRUE(control.ShouldStop());
  EXPECT_EQ(control.status().code(), StatusCode::kCancelled);
}

TEST(QueryControlTest, MoveTransfersArmedState) {
  std::atomic<uint64_t> epoch{3};
  QueryControl original;
  original.SetCancelCell(&epoch, 3);
  QueryControl moved = std::move(original);
  EXPECT_FALSE(moved.ShouldStop());
  epoch.store(4, std::memory_order_relaxed);
  EXPECT_TRUE(moved.ShouldStop());
  EXPECT_EQ(moved.status().code(), StatusCode::kCancelled);
}

TEST(QueryControlTest, NullControlIsSharedAndNeverStops) {
  QueryControl& null1 = NullControl();
  QueryControl& null2 = NullControl();
  EXPECT_EQ(&null1, &null2);
  EXPECT_FALSE(null1.ShouldStop());
  EXPECT_FALSE(null1.stopped());
  EXPECT_TRUE(null1.status().ok());
}

}  // namespace
}  // namespace nwc
