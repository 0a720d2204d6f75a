// Annotated mutex primitives: std::mutex / std::scoped_lock /
// std::condition_variable shaped wrappers that carry the clang capability
// attributes from util/annotations.hpp, so thread-safety analysis can see
// lock acquisition through them. Zero overhead — each wrapper is exactly
// the standard-library object plus attributes the compiler erases.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "util/annotations.hpp"

namespace prionn::util {

/// std::mutex as an annotated capability: members guarded by a Mutex can
/// be declared PRIONN_GUARDED_BY(mu_) and the analysis enforces it.
class PRIONN_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PRIONN_ACQUIRE() { mu_.lock(); }
  void unlock() PRIONN_RELEASE() { mu_.unlock(); }
  bool try_lock() PRIONN_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The wrapped std::mutex, for interop with standard condition-variable
  /// machinery (see CondVar). Using it to lock/unlock directly would blind
  /// the analysis — only CondVar should need it.
  std::mutex& native() noexcept { return mu_; }

 private:
  std::mutex mu_;
};

/// std::lock_guard over Mutex, visible to the analysis as a scoped
/// capability: the lock is held from construction to end of scope.
class PRIONN_SCOPED_CAPABILITY ScopedLock {
 public:
  explicit ScopedLock(Mutex& mu) PRIONN_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  /// Adopt a lock the caller already holds (say, from a successful
  /// try_lock()); it is released at end of scope like any other.
  ScopedLock(Mutex& mu, std::adopt_lock_t) PRIONN_REQUIRES(mu) : mu_(mu) {}
  ~ScopedLock() PRIONN_RELEASE() { mu_.unlock(); }

  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable over Mutex. wait() REQUIRES the mutex, like
/// std::condition_variable::wait requires the unique_lock: it is released
/// while blocked and re-held when wait returns, which the analysis models
/// as "held across the call".
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) PRIONN_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.native(), std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // ownership stays with the caller's scope
  }

  template <typename Predicate>
  void wait(Mutex& mu, Predicate pred) PRIONN_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.native(), std::adopt_lock);
    cv_.wait(lk, std::move(pred));
    lk.release();
  }

  /// Timed wait: returns the predicate's value when the wait ends (false
  /// means the deadline passed first). Used by deadline-driven loops such
  /// as the serving micro-batcher, which waits for more requests only
  /// until the oldest one's latency budget runs out.
  template <typename Rep, typename Period, typename Predicate>
  bool wait_for(Mutex& mu, std::chrono::duration<Rep, Period> timeout,
                Predicate pred) PRIONN_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.native(), std::adopt_lock);
    const bool ok = cv_.wait_for(lk, timeout, std::move(pred));
    lk.release();
    return ok;
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace prionn::util
