#ifndef NWC_SERVICE_MPMC_QUEUE_H_
#define NWC_SERVICE_MPMC_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

namespace nwc {

/// Bounded multi-producer / multi-consumer FIFO queue.
///
/// The queue is the backpressure point of the query service: producers
/// block in Push() until a consumer frees a slot (load shedding happens
/// before the push, in QueryService::AdmitJob). Closing the queue wakes every
/// blocked producer and consumer; consumers drain the remaining items
/// before Pop() returns false, so no accepted work is dropped by a
/// graceful shutdown.
///
/// ThreadSafety: every member is safe to call concurrently from any number
/// of threads; all state is guarded by one internal mutex. This is a
/// deliberately simple mutex+condvar design — the service's unit of work
/// (an NWC/kNWC query, thousands of node visits) dwarfs queue overhead, so
/// a lock-free ring would add complexity without measurable throughput.
template <typename T>
class MpmcQueue {
 public:
  /// A queue holding at most `capacity` items (capacity >= 1 enforced).
  explicit MpmcQueue(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  /// Blocks until a slot is free, then enqueues. Returns false (dropping
  /// `value`) when the queue is or becomes closed while waiting.
  bool Push(T value) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(value));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available and dequeues it into `out`.
  /// Returns false only when the queue is closed *and* drained.
  bool Pop(T& out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;  // closed and drained
    out = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  /// Closes the queue: subsequent pushes fail, blocked producers and
  /// consumers wake up, consumers drain what was already accepted.
  ///
  /// Shutdown-under-saturation audit (no lost wakeup): producers blocked
  /// in Push() wait on the predicate `closed_ || size < capacity`, and
  /// Close() flips `closed_` *under the same mutex* before notify_all on
  /// both condvars — so a producer cannot check the predicate, miss the
  /// close, and then sleep through the notification (the store and the
  /// wait are serialized by mu_). Every blocked producer therefore wakes,
  /// re-evaluates, and returns false. The related benign case: Pop()'s
  /// not_full_.notify_one can be "stolen" when a newly arriving Push grabs
  /// the freed slot before the woken producer reacquires the lock; the producer
  /// re-checks the predicate and re-waits, and the next Pop (or Close)
  /// notifies again, so progress is never lost. Regression coverage:
  /// MpmcQueueTest.CloseWakesProducersBlockedOnSaturatedQueue.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  /// Items currently queued (instantaneous; for metrics/gauges).
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace nwc

#endif  // NWC_SERVICE_MPMC_QUEUE_H_
