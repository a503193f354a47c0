// bagdet: shared fixed-size thread pool.
//
// One pool of worker threads serves every parallel stage of the pipeline —
// HomCache::BatchCountHoms' independent (from, to) counts, the hom core's
// parallel domain split (hom/hom.cpp), and the Hilbert layer's summary
// materialization — instead of each layer
// spawning and joining its own std::threads per call. The design is
// deliberately simple: a mutex-guarded FIFO task queue (no work stealing;
// pipeline tasks are coarse enough that queue contention is noise), plus a
// ParallelFor helper in which the *calling thread always participates*, so
// a nested ParallelFor issued from inside a worker can never deadlock:
// even when every worker is busy, the caller drains the whole index range
// itself.
//
// The global pool is sized to DefaultThreadCount() - 1 workers (the caller
// is the remaining lane): std::thread::hardware_concurrency(), overridden
// by the BAGDET_NUM_THREADS environment variable or programmatically by
// SetGlobalThreadPoolSize(). On a single-core host the global pool has no
// workers and every ParallelFor degenerates to a plain serial loop.

#ifndef BAGDET_UTIL_THREAD_POOL_H_
#define BAGDET_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bagdet {

class ThreadPool {
 public:
  /// Starts `num_workers` worker threads (0 is valid: Submit then runs
  /// tasks inline and ParallelFor runs serially on the calling thread).
  explicit ThreadPool(std::size_t num_workers);

  /// Workers finish the queued tasks, then join. (ParallelFor helper tasks
  /// own their state via shared_ptr, so late execution is always safe.)
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (not counting callers participating in
  /// ParallelFor).
  std::size_t num_workers() const { return workers_.size(); }

  /// Enqueues `task` for execution on a worker thread. With zero workers
  /// the task runs inline before Submit returns.
  void Submit(std::function<void()> task);

  /// Runs body(i) for every i in [0, n), fanning out across the workers
  /// with the calling thread participating; returns when all n calls have
  /// finished. At most `max_parallelism` threads touch the range when
  /// nonzero (1 forces a serial loop). The first exception thrown by
  /// `body` is rethrown on the calling thread after the range completes;
  /// indices claimed after that first failure are skipped, so a tripped
  /// ExecContext (deadline/cancel/budget — see util/exec_context.h)
  /// unwinds promptly across every lane. The caller's ExecContext, if
  /// any, is installed in each participating worker for the duration of
  /// the range. Safe to call from inside a pool task (the caller
  /// self-drains; helper tasks that fire late see an exhausted range and
  /// return immediately).
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& body,
                   std::size_t max_parallelism = 0);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Parallelism the global pool is sized for: BAGDET_NUM_THREADS when set to
/// a positive integer, else std::thread::hardware_concurrency() (minimum 1).
std::size_t DefaultThreadCount();

/// The process-wide pool, created on first use with DefaultThreadCount()-1
/// workers. The reference stays valid until SetGlobalThreadPoolSize() is
/// called again.
ThreadPool& GlobalThreadPool();

/// Resizes the global pool to `parallelism` total lanes (workers =
/// parallelism - 1; 0 restores the default sizing). The current pool, if
/// any, is joined and destroyed: call only while no pipeline work is in
/// flight (startup, or between requests).
void SetGlobalThreadPoolSize(std::size_t parallelism);

}  // namespace bagdet

#endif  // BAGDET_UTIL_THREAD_POOL_H_
