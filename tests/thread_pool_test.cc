#include "service/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

namespace nwc {
namespace {

TEST(ThreadPoolTest, ExecutesEverySubmittedJob) {
  std::atomic<int> executed{0};
  {
    ThreadPool pool(4, 16);
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(pool.Submit([&](size_t) { executed.fetch_add(1); }));
    }
    pool.Shutdown();  // drains before joining
  }
  EXPECT_EQ(executed.load(), 100);
}

TEST(ThreadPoolTest, ShutdownIsIdempotentAndRejectsLaterSubmits) {
  ThreadPool pool(2, 4);
  pool.Shutdown();
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([](size_t) {}));
  EXPECT_EQ(pool.jobs_executed(), 0u);
}

TEST(ThreadPoolTest, WorkerIndexesCoverThePool) {
  constexpr size_t kThreads = 4;
  std::mutex mu;
  std::set<size_t> indexes;
  {
    ThreadPool pool(kThreads, 8);
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(pool.Submit([&](size_t worker) {
        ASSERT_LT(worker, kThreads);
        std::lock_guard<std::mutex> lock(mu);
        indexes.insert(worker);
      }));
    }
  }
  EXPECT_FALSE(indexes.empty());
  for (const size_t index : indexes) EXPECT_LT(index, kThreads);
}

TEST(ThreadPoolTest, PropagatesFirstJobException) {
  ThreadPool pool(2, 8);
  std::atomic<int> after{0};
  ASSERT_TRUE(pool.Submit([](size_t) { throw std::runtime_error("job failed"); }));
  ASSERT_TRUE(pool.Submit([&](size_t) { after.fetch_add(1); }));
  pool.Shutdown();
  EXPECT_EQ(after.load(), 1) << "a throwing job must not kill the worker";

  std::exception_ptr error = pool.TakeFirstError();
  ASSERT_NE(error, nullptr);
  EXPECT_THROW(std::rethrow_exception(error), std::runtime_error);
  EXPECT_EQ(pool.TakeFirstError(), nullptr) << "TakeFirstError clears the slot";
}

TEST(ThreadPoolTest, NoErrorReportedForCleanJobs) {
  ThreadPool pool(2, 8);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(pool.Submit([](size_t) {}));
  pool.Shutdown();
  EXPECT_EQ(pool.TakeFirstError(), nullptr);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0, 4);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.Submit([&](size_t worker) {
    EXPECT_EQ(worker, 0u);
    ran.fetch_add(1);
  }));
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 1);
}

}  // namespace
}  // namespace nwc
