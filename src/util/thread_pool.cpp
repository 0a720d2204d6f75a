#include "util/thread_pool.hpp"

#include <algorithm>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "util/check.hpp"

namespace prionn::util {

namespace {

thread_local bool t_background = false;

/// Chunk bodies running on this thread, of any pool. Nonzero means a
/// loop issued here is nested and runs inline.
thread_local std::size_t t_chunk_depth = 0;

/// Counts the calling thread as running a chunk body while it lives.
class ChunkScope {
 public:
  ChunkScope() noexcept { ++t_chunk_depth; }
  ~ChunkScope() { --t_chunk_depth; }
  ChunkScope(const ChunkScope&) = delete;
  ChunkScope& operator=(const ChunkScope&) = delete;
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) : ThreadPool(threads, false) {}

ThreadPool::ThreadPool(std::size_t threads, bool background) {
  std::size_t n = threads ? threads : std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  workers_.reserve(n - 1);
  for (std::size_t i = 1; i < n; ++i) {
    workers_.emplace_back([this, i, background] {
      if (background) enter_background();
      worker_loop(i);
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    ScopedLock lock(mutex_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_chunk(const Task& task, std::size_t chunk_id) {
  PRIONN_DCHECK(task.body != nullptr && chunk_id < task.chunks)
      << "ThreadPool::run_chunk: chunk " << chunk_id << " of "
      << task.chunks;
  const std::size_t total = task.end - task.begin;
  const std::size_t per = total / task.chunks;
  const std::size_t extra = total % task.chunks;
  // First `extra` chunks take one extra iteration so the partition is exact.
  const std::size_t lo =
      task.begin + chunk_id * per + std::min(chunk_id, extra);
  const std::size_t hi = lo + per + (chunk_id < extra ? 1 : 0);
  if (lo >= hi) return;
  const ChunkScope scope;
  try {
    (*task.body)(lo, hi);
  } catch (...) {
    ScopedLock lock(mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

void ThreadPool::worker_loop(std::size_t worker_id) {
  std::size_t seen_generation = 0;
  for (;;) {
    Task task;
    {
      ScopedLock lock(mutex_);
      while (!stop_ && generation_ == seen_generation)
        cv_start_.wait(mutex_);
      if (stop_) return;
      seen_generation = generation_;
      task = task_;
    }
    // Only workers that own a chunk report back, so the submitter waits
    // for the threads doing its loop and not for the others' wakeups.
    if (worker_id >= task.chunks) continue;
    run_chunk(task, worker_id);
    {
      ScopedLock lock(mutex_);
      if (--remaining_ == 0) cv_done_.notify_all();
    }
  }
}

std::size_t ThreadPool::chunks_for(std::size_t begin,
                                   std::size_t end) const {
  if (workers_.empty() || t_chunk_depth != 0) return 1;
  return std::min(end - begin, size());
}

void ThreadPool::fan_out(const Task& task) {
  // Worker ids are 1..workers_.size(), so the partition below stays
  // exact only while chunks <= workers + 1.
  PRIONN_CHECK(task.chunks <= workers_.size() + 1)
      << "ThreadPool: " << task.chunks << " chunks for "
      << workers_.size() + 1 << " threads";
  {
    ScopedLock lock(mutex_);
    task_ = task;
    first_error_ = nullptr;
    remaining_ = task.chunks - 1;
    ++generation_;
  }
  cv_start_.notify_all();
  // Worker ids are 1..workers_.size() and each runs chunk == id when
  // id < chunks; the calling thread always takes chunk 0, so with
  // chunks <= workers + 1 the partition is exact and disjoint.
  run_chunk(task, 0);
  std::exception_ptr first_error;
  {
    ScopedLock lock(mutex_);
    while (remaining_ != 0) cv_done_.wait(mutex_);
    first_error = first_error_;
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::parallel_for_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t chunks = chunks_for(begin, end);
  if (chunks <= 1) {
    fn(begin, end);
    return;
  }
  // One loop at a time: the single task_ slot and the generation protocol
  // assume exactly one submitter, so concurrent callers queue here.
  ScopedLock submit_lock(submit_mutex_);
  fan_out({&fn, begin, end, chunks});
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for_chunks(begin, end, [&fn](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  });
}

bool ThreadPool::try_parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return true;
  const std::function<void(std::size_t, std::size_t)> body =
      [&fn](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      };
  const std::size_t chunks = chunks_for(begin, end);
  if (chunks <= 1) {
    body(begin, end);
    return true;
  }
  if (submit_mutex_.try_lock()) {
    ScopedLock submit_lock(submit_mutex_, std::adopt_lock);
    fan_out({&body, begin, end, chunks});
    return true;
  }
  // The pool is busy: every index runs here, as one chunk, so the loops
  // fn issues run inline as well and never queue for a pool either.
  const ChunkScope scope;
  body(begin, end);
  return false;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

ThreadPool& ThreadPool::background() {
  static ThreadPool pool(0, /*background=*/true);
  return pool;
}

ThreadPool& ThreadPool::current() {
  return t_background ? background() : global();
}

void ThreadPool::enter_background() {
  t_background = true;
#if defined(__linux__)
  // Best effort: lowering one's own policy needs no privilege, and a
  // failure only leaves the thread at normal priority.
  const sched_param param{};
  static_cast<void>(pthread_setschedparam(pthread_self(), SCHED_IDLE, &param));
#endif
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  ThreadPool::current().parallel_for(begin, end, fn);
}

}  // namespace prionn::util
