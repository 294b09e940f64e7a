// Clang Thread Safety Analysis for the DCP concurrency contracts, plus the annotated
// dcp::Mutex / dcp::MutexLock / dcp::CondVar wrappers every locked class in the repo
// uses. Under clang (`cmake --preset clang-strict`, -Wthread-safety -Werror) the
// annotations are a static proof obligation: a GUARDED_BY field touched without its
// mutex, a REQUIRES function called unlocked, or a lock leaked out of scope is a
// compile error. Under GCC the macros expand to nothing and the wrappers are
// zero-overhead shims over std::mutex / std::condition_variable, so the annotated tree
// builds identically everywhere and the proof runs wherever clang is available.
//
// Annotation style (mirrors the Clang TSA reference and abseil's usage):
//   - every mutex-protected field:       Type field_ DCP_GUARDED_BY(mu_);
//   - helpers called with the lock held: void F() DCP_REQUIRES(mu_);
//   - public APIs that take the lock:    void G() DCP_EXCLUDES(mu_);  // self-deadlock
//   - raw Lock/Unlock pairs:             DCP_ACQUIRE(mu_) / DCP_RELEASE(mu_)
// No function opts out of the analysis.
#ifndef DCP_COMMON_THREAD_ANNOTATIONS_H_
#define DCP_COMMON_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define DCP_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define DCP_THREAD_ANNOTATION_ATTRIBUTE(x)  // GCC/MSVC: no analysis, no attribute.
#endif

#define DCP_CAPABILITY(x) DCP_THREAD_ANNOTATION_ATTRIBUTE(capability(x))
#define DCP_SCOPED_CAPABILITY DCP_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)
#define DCP_GUARDED_BY(x) DCP_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))
#define DCP_PT_GUARDED_BY(x) DCP_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))
#define DCP_ACQUIRED_BEFORE(...) \
  DCP_THREAD_ANNOTATION_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define DCP_ACQUIRED_AFTER(...) \
  DCP_THREAD_ANNOTATION_ATTRIBUTE(acquired_after(__VA_ARGS__))
#define DCP_REQUIRES(...) \
  DCP_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define DCP_ACQUIRE(...) \
  DCP_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define DCP_RELEASE(...) \
  DCP_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))
#define DCP_TRY_ACQUIRE(...) \
  DCP_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))
#define DCP_EXCLUDES(...) DCP_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))
#define DCP_RETURN_CAPABILITY(x) DCP_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

namespace dcp {

// std::mutex with a capability annotation, so fields can be declared
// DCP_GUARDED_BY(mu_) and the analysis can prove every access holds it.
class DCP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() DCP_ACQUIRE() { mu_.lock(); }
  void Unlock() DCP_RELEASE() { mu_.unlock(); }
  bool TryLock() DCP_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // The underlying std::mutex, for CondVar.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

// RAII lock over dcp::Mutex (the std::lock_guard of this codebase). Also supports the
// unlock/relock dance condition-wait loops and lock-dropping hot paths need; the
// destructor releases only if still held.
class DCP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DCP_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() DCP_RELEASE() {
    if (held_) {
      mu_.Unlock();
    }
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void Unlock() DCP_RELEASE() {
    mu_.Unlock();
    held_ = false;
  }
  void Lock() DCP_ACQUIRE() {
    mu_.Lock();
    held_ = true;
  }

 private:
  Mutex& mu_;
  bool held_ = true;
};

// Condition variable paired with dcp::Mutex. Wait requires the mutex held (and the
// analysis checks callers); predicate loops are written inline at the call site —
//   while (!cond) cv_.Wait(mu_);
// — rather than as predicate lambdas, because the analysis does not propagate the
// held-capability fact into a lambda body.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) DCP_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.native(), std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // The caller still holds mu; don't double-unlock.
  }

  // Returns false on timeout (the mutex is re-held either way).
  template <typename Rep, typename Period>
  bool WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& timeout)
      DCP_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.native(), std::adopt_lock);
    const std::cv_status status = cv_.wait_for(lock, timeout);
    lock.release();
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace dcp

#endif  // DCP_COMMON_THREAD_ANNOTATIONS_H_
