// Clang thread-safety capability annotations, plus the annotated mutex
// vocabulary the runtime is written against.
//
// The serving tier's locking discipline (one admission mutex over
// registry+queues, a separate stats mutex, the threadpool's job mutex) is
// enforced STATICALLY: every guarded member is
// declared NB_GUARDED_BY its mutex and every must-hold function is declared
// NB_REQUIRES it, so a clang build with -Wthread-safety -Werror turns a
// register/submit-style race into a compile error instead of a TSan finding
// that needs the schedule to cooperate. Under GCC (and any compiler without
// the attributes) every macro expands to nothing and nb::Mutex is a plain
// std::mutex wrapper — zero runtime or layout cost either way.
//
// libstdc++'s std::mutex carries no capability attributes, so locking
// through std::lock_guard<std::mutex> is invisible to the analysis. The
// annotated wrappers below (nb::Mutex / nb::MutexLock / nb::CondVar) are
// the whole fix: same semantics, same cost, visible capabilities. New
// concurrent code should use them instead of raw std::mutex.
//
//   class Account {
//    public:
//     void deposit(int n) NB_REQUIRES(mu_) { balance_ += n; }
//     void lock() NB_ACQUIRE(mu_) { mu_.lock(); }
//     void unlock() NB_RELEASE(mu_) { mu_.unlock(); }
//    private:
//     nb::Mutex mu_;
//     int balance_ NB_GUARDED_BY(mu_) = 0;
//   };
//
// tools/check_thread_safety.sh proves both directions in CI: the tree
// builds warning-clean under -Wthread-safety -Werror, and deleting a lock
// around an NB_REQUIRES call is a compile error.
#pragma once

#include <condition_variable>
#include <mutex>

// Attribute shim: real attributes under clang, no-ops elsewhere. The
// analysis is opt-in per declaration, so annotating a class never changes
// what GCC compiles.
#if defined(__clang__) && !defined(SWIG)
#define NB_TS_ATTR(x) __attribute__((x))
#else
#define NB_TS_ATTR(x)  // no-op off clang
#endif

/// Marks a class as a lockable capability (mutexes, here).
#define NB_CAPABILITY(x) NB_TS_ATTR(capability(x))
/// Marks an RAII class whose lifetime acquires/releases a capability.
#define NB_SCOPED_CAPABILITY NB_TS_ATTR(scoped_lockable)
/// Data member readable/writable only while holding the capability.
#define NB_GUARDED_BY(x) NB_TS_ATTR(guarded_by(x))
/// Pointer member whose POINTEE is guarded by the capability.
#define NB_PT_GUARDED_BY(x) NB_TS_ATTR(pt_guarded_by(x))
/// Function acquires the capability (held on return).
#define NB_ACQUIRE(...) NB_TS_ATTR(acquire_capability(__VA_ARGS__))
/// Function releases the capability (not held on return).
#define NB_RELEASE(...) NB_TS_ATTR(release_capability(__VA_ARGS__))
/// Function acquires the capability when it returns the given value.
#define NB_TRY_ACQUIRE(...) NB_TS_ATTR(try_acquire_capability(__VA_ARGS__))
/// Caller must already hold the capability.
#define NB_REQUIRES(...) NB_TS_ATTR(requires_capability(__VA_ARGS__))
/// Caller must NOT hold the capability (deadlock prevention).
#define NB_EXCLUDES(...) NB_TS_ATTR(locks_excluded(__VA_ARGS__))
/// Runtime assertion that the capability is held (trusted by the analysis).
#define NB_ASSERT_CAPABILITY(x) NB_TS_ATTR(assert_capability(x))
/// Function returns a reference to the named capability.
#define NB_RETURN_CAPABILITY(x) NB_TS_ATTR(lock_returned(x))
/// Escape hatch: skip analysis for one function (init/teardown paths that
/// are single-threaded by construction). Use sparingly and say why.
#define NB_NO_THREAD_SAFETY_ANALYSIS NB_TS_ATTR(no_thread_safety_analysis)

namespace nb {

/// std::mutex with capability attributes — the only change is that clang
/// can now see acquisitions and releases.
class NB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() NB_ACQUIRE() { mu_.lock(); }
  void unlock() NB_RELEASE() { mu_.unlock(); }
  bool try_lock() NB_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// std::lock_guard over nb::Mutex, visible to the analysis.
class NB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) NB_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() NB_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable over nb::Mutex. wait()/wait_until() atomically
/// release and reacquire the mutex, so from the analysis's point of view
/// the capability is held across the call — which is exactly the contract
/// the caller's wait loop relies on. Predicate-taking overloads are
/// deliberately absent: the analysis cannot attach a capability to a
/// lambda, so wait predicates are written as explicit while-loops whose
/// guarded reads sit in a context that provably holds the lock.
class CondVar {
 public:
  void wait(Mutex& mu) NB_REQUIRES(mu) { cv_.wait(mu); }

  template <class Clock, class Duration>
  std::cv_status wait_until(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      NB_REQUIRES(mu) {
    return cv_.wait_until(mu, deadline);
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace nb
