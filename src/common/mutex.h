// Annotated synchronization primitives: thin, zero-overhead wrappers over
// std::mutex / std::shared_mutex / std::condition_variable that carry the
// thread-safety capability attributes from common/thread_annotations.h.
//
// Clang's analysis only tracks locks it can see through annotated methods,
// so all concurrency-bearing subsystems use these wrappers instead of the
// raw std:: types. Everything is header-only and inlines to exactly the
// std:: call; TSan and the benchmarks see identical code.
//
// Idioms supported (mirroring the call sites in this codebase):
//   MutexLock l(&mu);                         // plain scoped lock
//   if (mu.TryLock()) { MutexLock l(&mu, std::adopt_lock); ... }
//   cv.WaitUntil(&mu, deadline);              // REQUIRES(mu) predicate loop
//   WriterLock / ReaderLock on SharedMutex    // engine forward gate
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.h"

namespace deutero {

class CondVar;

// Exclusive mutex. Declared a "capability" so fields can be GUARDED_BY it
// and functions can REQUIRES/ACQUIRE/RELEASE it.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  // [[nodiscard]]: ignoring a successful TryLock leaks the lock.
  [[nodiscard]] bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII scoped lock over Mutex. SCOPED_CAPABILITY tells the analysis the
// capability is held for exactly the object's lifetime.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  // Adopts a mutex the caller already holds (e.g. via TryLock); the
  // destructor still releases it.
  MutexLock(Mutex* mu, std::adopt_lock_t) REQUIRES(mu) : mu_(mu) {}
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

// Condition variable bound to Mutex. All waits REQUIRES(mu): the analysis
// treats the capability as held across the wait, matching the usual
// "recheck the predicate under the lock" loop. Internally each wait adopts
// the already-held std::mutex into a std::unique_lock for the wait call and
// releases it (without unlocking) afterwards, so ownership never actually
// transfers.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu->mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();
  }

  template <typename Pred>
  void Wait(Mutex* mu, Pred pred) REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu->mu_, std::adopt_lock);
    cv_.wait(lk, std::move(pred));
    lk.release();
  }

  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(Mutex* mu,
                           const std::chrono::time_point<Clock, Duration>& tp)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu->mu_, std::adopt_lock);
    std::cv_status st = cv_.wait_until(lk, tp);
    lk.release();
    return st;
  }

  template <typename Clock, typename Duration, typename Pred>
  bool WaitUntil(Mutex* mu, const std::chrono::time_point<Clock, Duration>& tp,
                 Pred pred) REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu->mu_, std::adopt_lock);
    bool ok = cv_.wait_until(lk, tp, std::move(pred));
    lk.release();
    return ok;
  }

  template <typename Rep, typename Period>
  std::cv_status WaitFor(Mutex* mu,
                         const std::chrono::duration<Rep, Period>& d)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu->mu_, std::adopt_lock);
    std::cv_status st = cv_.wait_for(lk, d);
    lk.release();
    return st;
  }

  template <typename Rep, typename Period, typename Pred>
  bool WaitFor(Mutex* mu, const std::chrono::duration<Rep, Period>& d,
               Pred pred) REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu->mu_, std::adopt_lock);
    bool ok = cv_.wait_for(lk, d, std::move(pred));
    lk.release();
    return ok;
  }

  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

// Reader/writer mutex (the engine's forward gate). Writers hold it
// exclusively; readers hold it shared. GUARDED_BY on a field means writers
// may mutate it and shared holders may read it.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  void LockShared() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

// RAII exclusive hold on a SharedMutex.
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~WriterLock() RELEASE() { mu_->Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex* const mu_;
};

// RAII shared hold on a SharedMutex. The destructor is RELEASE_GENERIC
// because a scoped capability's destructor must release whatever mode the
// constructor acquired; Clang models shared releases this way.
class SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex* mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->LockShared();
  }
  ~ReaderLock() RELEASE_GENERIC() { mu_->UnlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex* const mu_;
};

}  // namespace deutero
