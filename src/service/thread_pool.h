#ifndef NWC_SERVICE_THREAD_POOL_H_
#define NWC_SERVICE_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "service/mpmc_queue.h"

namespace nwc {

/// Fixed-size worker pool over a bounded MpmcQueue of jobs.
///
/// Jobs receive the index of the worker running them (0 .. num_threads-1),
/// which lets callers maintain per-worker state — the query service uses it
/// to give each worker its own FaultInjector, since an injector's schedule
/// state must never be shared across threads (see storage/fault_injector.h).
///
/// Backpressure: Submit() blocks while the queue is full; callers that
/// want to shed load do their own admission before submitting.
///
/// Shutdown is graceful: the queue is closed, workers drain every job that
/// was already accepted, then exit. The destructor shuts down implicitly.
///
/// Exception propagation: the library itself reports failures through
/// Status, but a job may still throw (std::bad_alloc, caller bugs). A
/// worker that catches an exception records it and keeps serving; the first
/// recorded exception is available from TakeFirstError() so tests and
/// callers can surface it instead of silently losing a crashed job.
///
/// ThreadSafety: all public members are safe to call from any thread.
class ThreadPool {
 public:
  using Job = std::function<void(size_t worker_index)>;

  /// Starts `num_threads` workers (minimum 1) behind a queue holding at
  /// most `queue_capacity` pending jobs.
  ThreadPool(size_t num_threads, size_t queue_capacity);

  /// Shuts down (draining accepted jobs) if Shutdown() was not called.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a job, blocking while the queue is full. Returns false when
  /// the pool has been shut down (the job is dropped).
  bool Submit(Job job);

  /// Closes the queue and joins all workers after they drain the accepted
  /// jobs. Idempotent.
  void Shutdown();

  size_t num_threads() const { return threads_.size(); }

  /// Jobs currently waiting in the queue (instantaneous).
  size_t QueueDepth() const { return queue_.size(); }

  size_t queue_capacity() const { return queue_.capacity(); }

  /// Jobs fully executed so far (monotonic).
  uint64_t jobs_executed() const { return jobs_executed_.load(std::memory_order_relaxed); }

  /// Returns and clears the first exception a job threw, or nullptr when
  /// every job so far completed cleanly.
  std::exception_ptr TakeFirstError();

 private:
  void WorkerLoop(size_t worker_index);

  MpmcQueue<Job> queue_;
  std::vector<std::thread> threads_;
  std::atomic<uint64_t> jobs_executed_{0};
  std::mutex error_mu_;
  std::exception_ptr first_error_;
  std::atomic<bool> shut_down_{false};
};

}  // namespace nwc

#endif  // NWC_SERVICE_THREAD_POOL_H_
