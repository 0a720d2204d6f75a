// Work-sharing thread pool used for data-parallel loops (GEMM tiles,
// per-sample gradient computation, forest fitting, the predictor's
// heads). The pool follows the OpenMP "parallel for" model: a static
// partition of the index range over a fixed set of workers, which is the
// right shape for the regular, equal-cost iterations that dominate this
// library.
//
// Two process-wide pools exist: global() for the foreground, and
// background() for work that must yield the CPU to it, such as
// PredictionService's background retrain. Loops issued through current()
// (util::parallel_for, tensor::gemm) land on background() from a thread
// that called enter_background(), and on global() from any other. A loop
// issued from inside another loop's body runs inline (see parallel_for).
// The serving batcher fans its heads out on global() too, but through
// try_parallel_for, which never waits behind another submitter's loop
// (a retrain_now() caller's head fits, say): it runs inline instead.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace prionn::util {

class ThreadPool {
 public:
  /// Create a pool with `threads` workers; 0 means hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size() + 1; }

  /// Run fn(begin..end) partitioned across the pool (including the calling
  /// thread). Blocks until every iteration has completed. `fn` receives
  /// (index). Exceptions thrown by fn propagate to the caller (first one).
  /// Safe to call from multiple threads at once: concurrent loops are
  /// serialised on a submission lock (the pool has one task slot), so
  /// concurrent callers interleave at per-loop granularity rather than
  /// corrupting the task state. That also makes them wait for each
  /// other's loops, which is why a background retrain issues its loops
  /// on background(), and why the serving batcher issues its loop with
  /// try_parallel_for. A loop issued from inside a chunk body (of any
  /// pool) runs inline, as one chunk on that thread: the submission lock
  /// is not reentrant and the workers are busy, so fanning out again
  /// would deadlock. Inline keeps the bits, because every loop in this
  /// library partitions independent iterations (GEMM rows, forest trees,
  /// scripts, heads) whose results do not depend on which thread or
  /// chunk computes them.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// parallel_for that never waits for another submitter's loop. It
  /// takes the submission lock with try_lock; when another loop holds
  /// it, every index runs on the calling thread as one chunk, so the
  /// loops fn issues run inline too and never queue either. A nested or
  /// one-index loop runs inline as parallel_for's does (one index's own
  /// loops may then fan out, and wait). Returns false exactly when it
  /// ran inline because the pool was busy.
  bool try_parallel_for(std::size_t begin, std::size_t end,
                        const std::function<void(std::size_t)>& fn);

  /// Chunked variant: fn(chunk_begin, chunk_end) per worker — lets the body
  /// keep per-chunk scratch state without false sharing.
  void parallel_for_chunks(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t)>& fn);

  /// Process-wide pool sized to the machine; lazily constructed.
  static ThreadPool& global();

  /// Process-wide pool sized to the machine whose workers run at idle CPU
  /// priority (see enter_background()); lazily constructed.
  static ThreadPool& background();

  /// The pool for loops issued by the calling thread: background() after
  /// it called enter_background() (and on background()'s own workers),
  /// global() everywhere else.
  static ThreadPool& current();

  /// Make the calling thread a background thread for the rest of its
  /// life: it drops to idle CPU priority (SCHED_IDLE on Linux: a woken
  /// normal-priority thread preempts it at once, and on a contended core
  /// it gets only a token share; a no-op elsewhere) and current() returns
  /// background() on it. One-way: an unprivileged thread may not raise
  /// its priority back.
  static void enter_background();

 private:
  ThreadPool(std::size_t threads, bool background);

  struct Task {
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t chunks = 0;
  };

  /// Number of chunks a loop over [begin, end) fans out into; 1 means
  /// it runs inline (one iteration, no workers, or a nested loop).
  std::size_t chunks_for(std::size_t begin, std::size_t end) const;
  /// Publishes `task` to the workers, runs chunk 0 on the calling thread,
  /// waits for the other chunks and rethrows the first error.
  void fan_out(const Task& task) PRIONN_REQUIRES(submit_mutex_);
  void worker_loop(std::size_t worker_id);
  /// Runs one chunk of `task` on the calling thread. Takes a *copy* of the
  /// task descriptor made under the lock: the generation protocol
  /// guarantees task_ is stable while any chunk runs, but handing each
  /// runner its own copy makes that independence provable (and lets
  /// thread-safety analysis keep task_ guarded).
  void run_chunk(const Task& task, std::size_t chunk_id);

  std::vector<std::thread> workers_;
  /// Held for the whole duration of one fanned-out loop: the pool has a
  /// single task_ slot, so concurrent submitters take turns (or, through
  /// try_parallel_for, run inline).
  Mutex submit_mutex_;
  Mutex mutex_;
  CondVar cv_start_;
  CondVar cv_done_;
  Task task_ PRIONN_GUARDED_BY(mutex_);
  std::size_t generation_ PRIONN_GUARDED_BY(mutex_) = 0;
  std::size_t remaining_ PRIONN_GUARDED_BY(mutex_) = 0;
  bool stop_ PRIONN_GUARDED_BY(mutex_) = false;
  std::exception_ptr first_error_ PRIONN_GUARDED_BY(mutex_);
};

/// Convenience wrapper over ThreadPool::current().
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

}  // namespace prionn::util
