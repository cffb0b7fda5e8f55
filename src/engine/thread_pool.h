#ifndef SPOT_ENGINE_THREAD_POOL_H_
#define SPOT_ENGINE_THREAD_POOL_H_

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace spot {

/// Reusable fork-join pool for the sharded batch loop. A process has one
/// (Shared()); every detector, service and reactor dispatches onto it.
///
/// Dispatch(num_jobs, job) runs job(0..num_jobs) across the pool's worker
/// threads plus the calling thread, blocking until every job has finished.
/// Jobs are pulled from a shared atomic counter, so which thread runs a
/// given job is not deterministic — callers must hand out jobs whose results
/// do not depend on their executor (the engine's jobs are whole shards /
/// whole grids, each internally sequential and touching disjoint state).
///
/// Dispatch() is safe for concurrent callers, under two rules:
///   - One owner at a time. One dispatch at a time owns the workers. A
///     caller that finds them owned does not wait: it tries the owner lock
///     once and, on failure, runs its own jobs inline.
///   - Bounded wake-ups. A dispatch of n jobs wakes at most n - 1 workers,
///     since the calling thread runs jobs too.
///
/// The mutex handshake around each dispatch establishes happens-before in
/// both directions: workers see all coordinator writes preceding Dispatch(),
/// and the coordinator sees all worker writes once Dispatch() returns. A
/// worker joins a dispatch only by claiming one of its wake-ups, and
/// Dispatch() does not return while any joined worker is still inside the
/// job loop; unclaimed wake-ups expire with the dispatch, so a straggler
/// can never read a finished dispatch's state.
class ThreadPool {
 public:
  /// Spawns `num_threads` persistent workers (0 = run everything inline on
  /// the dispatching thread).
  explicit ThreadPool(std::size_t num_threads) {
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_ready_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process's one pool, built on first use with one worker fewer than
  /// the CPUs in this process's affinity mask, because the dispatching
  /// thread takes part (so one CPU means no workers at all).
  static ThreadPool& Shared() {
    static ThreadPool pool(AffinityCpus() - 1);
    return pool;
  }

  /// Runs job(i) for every i in [0, num_jobs) and returns once all have
  /// completed. The calling thread participates.
  void Dispatch(std::size_t num_jobs,
                const std::function<void(std::size_t)>& job) {
    if (num_jobs == 0) return;
    std::unique_lock<std::mutex> owner(owner_, std::defer_lock);
    if (workers_.empty() || num_jobs == 1 || !owner.try_lock()) {
      for (std::size_t i = 0; i < num_jobs; ++i) job(i);
      return;
    }
    const std::size_t wake = std::min(num_jobs - 1, workers_.size());
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = &job;
      num_jobs_ = num_jobs;
      next_job_.store(0, std::memory_order_relaxed);
      completed_ = 0;
      wakeups_ = wake;
    }
    for (std::size_t i = 0; i < wake; ++i) work_ready_.notify_one();
    const std::size_t ran = RunJobs();
    std::unique_lock<std::mutex> lock(mutex_);
    completed_ += ran;
    all_done_.wait(lock, [this] {
      return completed_ == num_jobs_ && active_workers_ == 0;
    });
    wakeups_ = 0;
  }

 private:
  static std::size_t AffinityCpus() {
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    if (::sched_getaffinity(0, sizeof(cpus), &cpus) == 0 &&
        CPU_COUNT(&cpus) > 0) {
      return static_cast<std::size_t>(CPU_COUNT(&cpus));
    }
    return std::max(1u, std::thread::hardware_concurrency());
  }

  /// Pulls and runs jobs until none remain. Returns the number executed by
  /// this thread. Only called by the owner between the dispatch setup and
  /// its completion wait, or by a worker holding one of its wake-ups, so
  /// the unlocked reads of job_/num_jobs_ cannot race a later dispatch.
  std::size_t RunJobs() {
    std::size_t ran = 0;
    for (;;) {
      const std::size_t i = next_job_.fetch_add(1, std::memory_order_relaxed);
      if (i >= num_jobs_) break;
      (*job_)(i);
      ++ran;
    }
    return ran;
  }

  void WorkerLoop() {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_ready_.wait(lock, [this] { return stop_ || wakeups_ > 0; });
        if (stop_) return;
        --wakeups_;
        ++active_workers_;
      }
      const std::size_t ran = RunJobs();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        completed_ += ran;
        --active_workers_;
        if (active_workers_ == 0 && completed_ == num_jobs_) {
          all_done_.notify_one();
        }
      }
    }
  }

  std::mutex owner_;  // held by the dispatch that owns the workers
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable all_done_;
  std::vector<std::thread> workers_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t num_jobs_ = 0;
  std::atomic<std::size_t> next_job_{0};
  std::size_t completed_ = 0;        // guarded by mutex_
  std::size_t active_workers_ = 0;   // guarded by mutex_
  std::size_t wakeups_ = 0;          // guarded by mutex_
  bool stop_ = false;                // guarded by mutex_
};

}  // namespace spot

#endif  // SPOT_ENGINE_THREAD_POOL_H_
