#include "core/thread_pool.h"

#include <stdexcept>

namespace apqa::core {

ThreadPool::ThreadPool(int threads, std::size_t max_queue)
    : max_queue_(max_queue) {
  if (threads > 1) {
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }
}

ThreadPool::~ThreadPool() { Stop(); }

void ThreadPool::Stop() {
  {
    std::unique_lock lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  task_cv_.notify_all();
  // workers_ is left populated (threads joined, not erased) so that
  // Submit/TrySubmit keep taking the queue path and report the stop error
  // instead of silently running inline.
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      task_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ is set and the queue is drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::unique_lock lock(mu_);
      if (--in_flight_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    {
      std::unique_lock lock(mu_);
      if (stop_) throw std::runtime_error("ThreadPool::Submit after Stop()");
    }
    task();
    return;
  }
  {
    std::unique_lock lock(mu_);
    if (stop_) throw std::runtime_error("ThreadPool::Submit after Stop()");
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_cv_.notify_one();
}

bool ThreadPool::TrySubmit(std::function<void()> task) {
  if (workers_.empty()) {
    {
      std::unique_lock lock(mu_);
      if (stop_) return false;
    }
    task();
    return true;
  }
  {
    std::unique_lock lock(mu_);
    if (stop_) return false;
    if (max_queue_ > 0 && tasks_.size() >= max_queue_) return false;
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_cv_.notify_one();
  return true;
}

void ThreadPool::WaitAll() {
  if (workers_.empty()) return;
  std::unique_lock lock(mu_);
  done_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

std::size_t ThreadPool::queued() const {
  std::unique_lock lock(mu_);
  return tasks_.size();
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = 0; i < n; ++i) {
    Submit([&fn, i] { fn(i); });
  }
  WaitAll();
}

std::function<void(std::size_t, const std::function<void(std::size_t)>&)>
FanOut(ThreadPool* pool) {
  if (pool == nullptr || pool->thread_count() < 2) return nullptr;
  return [pool](std::size_t n, const std::function<void(std::size_t)>& fn) {
    pool->ParallelFor(n, fn);
  };
}

}  // namespace apqa::core
