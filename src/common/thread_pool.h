#ifndef PMJOIN_COMMON_THREAD_POOL_H_
#define PMJOIN_COMMON_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace pmjoin {

/// Counts outstanding tasks; `Wait` blocks until every `Add` has been
/// matched by a `Done`. The release in `Done` happens-before the return of
/// the `Wait` it unblocks, so results written by workers before `Done` are
/// visible to the waiter without further synchronization.
class WaitGroup {
 public:
  /// Registers `n` tasks that will later call Done().
  void Add(uint32_t n) PMJOIN_EXCLUDES(mu_);

  /// Marks one task finished.
  void Done() PMJOIN_EXCLUDES(mu_);

  /// Blocks until the outstanding count is zero.
  void Wait() PMJOIN_EXCLUDES(mu_);

 private:
  Mutex mu_{lock_rank::kWaitGroup, "WaitGroup::mu_"};
  CondVar cv_;
  int64_t pending_ PMJOIN_GUARDED_BY(mu_) = 0;
};

/// A fixed-size pool of worker threads draining a FIFO task queue.
///
/// Used by the cluster-join executor (core/executor.h): tasks are
/// the per-chunk entry joins of the current cluster. The pool is
/// deliberately minimal — no futures, no stealing — because the executor
/// synchronizes per cluster with a WaitGroup and needs nothing more.
///
/// Destruction drains nothing: remaining queued tasks are discarded after
/// the currently running ones finish, so callers must Wait on their own
/// work before letting the pool die.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(uint32_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for execution by some worker.
  void Submit(std::function<void()> task) PMJOIN_EXCLUDES(mu_);

  /// Number of worker threads.
  uint32_t size() const { return static_cast<uint32_t>(threads_.size()); }

 private:
  void WorkerLoop() PMJOIN_EXCLUDES(mu_);

  Mutex mu_{lock_rank::kThreadPool, "ThreadPool::mu_"};
  CondVar cv_;
  std::deque<std::function<void()>> queue_ PMJOIN_GUARDED_BY(mu_);
  bool stop_ PMJOIN_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
};

}  // namespace pmjoin

#endif  // PMJOIN_COMMON_THREAD_POOL_H_
