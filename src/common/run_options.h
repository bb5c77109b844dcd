#ifndef HER_COMMON_RUN_OPTIONS_H_
#define HER_COMMON_RUN_OPTIONS_H_

#include <atomic>
#include <chrono>

namespace her {

/// Cooperative cancellation flag shared between a caller and any number of
/// running engines/workers. Thread-safe; the caller keeps ownership and the
/// token must outlive every run it was passed to.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Bounded-latency contract of a matching run: an absolute deadline and/or
/// a cancellation token, checked cooperatively at superstep barriers and
/// per-pair evaluations. Expiry never crashes or hangs a run — it degrades
/// it: the engines stop evaluating new pairs, the drivers return the
/// partial Pi proved so far, and every pair whose verdict was not (or no
/// longer can be) established is reported as unresolved.
///
/// The default-constructed options never expire, and checking them costs no
/// clock read, so always-on call sites pay nothing in the common case.
struct RunOptions {
  using Clock = std::chrono::steady_clock;

  /// Absolute deadline; time_point::max() means none.
  Clock::time_point deadline = Clock::time_point::max();
  /// Optional cancellation token (borrowed, may be null).
  const CancelToken* cancel = nullptr;

  /// Options expiring `timeout` from now.
  template <typename Rep, typename Period>
  static RunOptions WithTimeout(std::chrono::duration<Rep, Period> timeout) {
    RunOptions o;
    o.deadline = Clock::now() + timeout;
    return o;
  }

  bool has_deadline() const {
    return deadline != Clock::time_point::max();
  }

  /// True once the deadline passed or the token was cancelled. Reads the
  /// clock only when a deadline is actually set.
  bool Expired() const {
    if (cancel != nullptr && cancel->cancelled()) return true;
    return has_deadline() && Clock::now() >= deadline;
  }
};

}  // namespace her

#endif  // HER_COMMON_RUN_OPTIONS_H_
