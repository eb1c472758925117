// Fixed-size thread pool used as the execution backend for parallel rounds.
//
// Design notes (per C++ Core Guidelines CP.20-CP.26): workers are joined by
// RAII in the destructor, never detached; tasks are passed by value; the
// only shared state is the internal queue, guarded by a single mutex.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace pardpp {

/// A minimal fixed-size thread pool with future-returning submission.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (defaults to hardware concurrency, at
  /// least one).
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Stops accepting work, drains the queue, and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task; the returned future reports completion/exceptions.
  template <typename Fn>
  [[nodiscard]] std::future<std::invoke_result_t<Fn>> submit(Fn&& fn) {
    using Result = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<Result()>>(
        std::forward<Fn>(fn));
    std::future<Result> future = task->get_future();
    {
      const std::scoped_lock lock(mutex_);
      queue_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace pardpp
