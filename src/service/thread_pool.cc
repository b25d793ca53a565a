#include "service/thread_pool.h"

#include <utility>

namespace nwc {

ThreadPool::ThreadPool(size_t num_threads, size_t queue_capacity)
    : queue_(queue_capacity) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Submit(Job job) { return queue_.Push(std::move(job)); }

void ThreadPool::Shutdown() {
  if (shut_down_.exchange(true)) return;
  queue_.Close();
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

std::exception_ptr ThreadPool::TakeFirstError() {
  std::lock_guard<std::mutex> lock(error_mu_);
  return std::exchange(first_error_, nullptr);
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  Job job;
  while (queue_.Pop(job)) {
    try {
      job(worker_index);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    jobs_executed_.fetch_add(1, std::memory_order_relaxed);
    job = nullptr;  // release captured state before blocking on the queue
  }
}

}  // namespace nwc
