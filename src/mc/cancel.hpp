// Cooperative cancellation for long-running experiments.
//
// A CancelToken is an atomic stop flag plus an optional monotonic deadline,
// shared between the party that wants work stopped (a service handling
// SIGTERM, an admission controller shedding load, a client disconnect) and
// the workers doing it. Workers poll stopRequested() between samples (the
// Monte Carlo engine before each block of samples) and abort with partial,
// well-labeled results — cancellation is cooperative, never preemptive, so
// shared state (caches, scratch arenas, counters) is always left consistent.
//
// Thread-safe: any thread may cancel() / setDeadline*, any number of
// threads may poll. Polling is two relaxed atomic loads plus (when a
// deadline is armed) one steady_clock read — cheap against the cost of a
// Monte Carlo sample.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>

namespace mcx {

class CancelToken {
public:
  using Clock = std::chrono::steady_clock;

  /// Why a token is requesting stop. Cancelled wins over DeadlineExceeded
  /// when both hold (an explicit cancel is the stronger, intentional
  /// signal).
  enum class StopReason { None, Cancelled, DeadlineExceeded };

  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Request stop. Idempotent; visible to every poller.
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Arm (or move) the deadline. Workers observing Clock::now() past the
  /// deadline treat the token as stopped with reason DeadlineExceeded.
  void setDeadline(Clock::time_point deadline) {
    deadlineTicks_.store(deadline.time_since_epoch().count(), std::memory_order_relaxed);
  }
  void setDeadlineAfter(std::chrono::nanoseconds budget) {
    setDeadline(Clock::now() + std::chrono::duration_cast<Clock::duration>(budget));
  }
  /// Convenience for the service's millisecond-denominated request budgets.
  /// `ms` can be client-controlled (a request's deadline_ms), so the
  /// nanosecond conversion saturates instead of overflowing: a non-positive
  /// or NaN budget expires immediately, and anything past ~28 years clamps
  /// there — indistinguishable from "no deadline" for a real request, and
  /// far enough below int64 max that now() + budget cannot wrap either.
  void setDeadlineAfterMillis(double ms) {
    constexpr double kMaxNanos = 9.0e17;  // ~28.5 years
    double ns = ms * 1e6;
    if (!(ns >= 0)) ns = 0;  // negative or NaN: already expired
    if (ns > kMaxNanos) ns = kMaxNanos;
    setDeadlineAfter(std::chrono::nanoseconds(static_cast<std::int64_t>(ns)));
  }

  bool hasDeadline() const {
    return deadlineTicks_.load(std::memory_order_relaxed) != kNoDeadline;
  }
  /// Milliseconds until the armed deadline — negative once past, +infinity
  /// when no deadline is armed. The degradation path sizes trimmed sample
  /// counts against this remaining budget.
  double remainingMillis() const {
    const auto ticks = deadlineTicks_.load(std::memory_order_relaxed);
    if (ticks == kNoDeadline) return std::numeric_limits<double>::infinity();
    return static_cast<double>(ticks - Clock::now().time_since_epoch().count()) / 1e6;
  }
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }
  bool expired() const {
    const auto ticks = deadlineTicks_.load(std::memory_order_relaxed);
    return ticks != kNoDeadline && Clock::now().time_since_epoch().count() >= ticks;
  }

  /// The per-sample poll: explicit cancel or deadline passed.
  bool stopRequested() const { return cancelled() || expired(); }

  StopReason reason() const {
    if (cancelled()) return StopReason::Cancelled;
    if (expired()) return StopReason::DeadlineExceeded;
    return StopReason::None;
  }

  /// Taxonomy label for the reason ("", "cancelled", "deadline_exceeded") —
  /// matches the service's structured error codes.
  static const char* reasonLabel(StopReason reason) {
    switch (reason) {
      case StopReason::Cancelled: return "cancelled";
      case StopReason::DeadlineExceeded: return "deadline_exceeded";
      case StopReason::None: break;
    }
    return "";
  }

private:
  static constexpr Clock::time_point::rep kNoDeadline = Clock::time_point::max().time_since_epoch().count();

  std::atomic<bool> cancelled_{false};
  std::atomic<Clock::time_point::rep> deadlineTicks_{kNoDeadline};
};

using CancelTokenPtr = std::shared_ptr<CancelToken>;

}  // namespace mcx
