// Fixed-size thread pool (paper §8.2: acceleration by parallelism).
//
// The pool runs the multiplies of the signing stage (abs::SignBatch): the
// SP's relaxations of a VO (core::RelaxNodes) and the DO's signatures of an
// ADS build (GridTree::Build) queue in draw order on the calling thread,
// and only the units of each multiply batch fan out, so pooled bytes equal
// serial bytes. The user-side verifier fans its signature checks out over
// it (core/parallel_verify.h), and the query service (net/server.h) uses
// it as a bounded request queue: TrySubmit rejects work once `max_queue`
// tasks are waiting, which is what lets the server shed load instead of
// building an unbounded backlog.
//
// Lifecycle: Stop() drains every queued task, then joins the workers
// (the destructor calls it). Submitting after Stop() is a defined error —
// Submit throws std::runtime_error, TrySubmit returns false — never a
// silent drop.
#ifndef APQA_CORE_THREAD_POOL_H_
#define APQA_CORE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/lock_rank.h"

namespace apqa::core {

class ThreadPool {
 public:
  // threads == 0 or 1 degenerates to synchronous execution in Submit.
  // max_queue bounds the number of *waiting* tasks seen by TrySubmit;
  // 0 means unbounded.
  explicit ThreadPool(int threads, std::size_t max_queue = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues unconditionally (ignores max_queue). Throws std::runtime_error
  // after Stop().
  void Submit(std::function<void()> task);

  // Enqueues unless the pool is stopped or max_queue tasks are already
  // waiting; returns whether the task was accepted. With no worker threads
  // the task runs synchronously (there is no queue to fill).
  bool TrySubmit(std::function<void()> task);

  // Blocks until every submitted task has finished.
  void WaitAll();

  // Drains queued tasks, then joins the workers. Idempotent; called by the
  // destructor, so destroying a pool with pending tasks runs them first.
  void Stop();

  int thread_count() const { return static_cast<int>(workers_.size()); }
  std::size_t queued() const;

  // Convenience: runs fn(i) for i in [0, n) across the pool and waits.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  // Rank kThreadPool: submissions arrive while SpServer holds kServerSp, so
  // this lock must outrank it (see common/lock_rank.h). The _any condition
  // variables are required: std::condition_variable only waits on
  // unique_lock<std::mutex>, and the ranked shim must see the release/
  // reacquire a wait performs to keep its held-rank stack truthful.
  mutable common::RankedMutex<common::LockRank::kThreadPool> mu_;
  std::condition_variable_any task_cv_;
  std::condition_variable_any done_cv_;
  std::size_t in_flight_ = 0;
  std::size_t max_queue_ = 0;
  bool stop_ = false;
};

// pool->ParallelFor as the fan-out of a signing stage (abs::SignBatch), or
// none, so the stage runs on the calling thread, without a pool of two or
// more threads.
std::function<void(std::size_t, const std::function<void(std::size_t)>&)>
FanOut(ThreadPool* pool);

}  // namespace apqa::core

#endif  // APQA_CORE_THREAD_POOL_H_
