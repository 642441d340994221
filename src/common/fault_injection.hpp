// swat::FaultInjector — named, armable fault-injection points for the
// serving layer's resilience tests.
//
// A production-shaped server must be able to PROVE its failure semantics:
// that an executor throw fails only that batch's tickets, that a stalled
// scheduler trips the watchdog, that a slow admission queue delays but
// never loses work. Those proofs need faults on demand, at exact points,
// in the real code path — not in a mock. The injector is therefore
// compiled in always and is a no-op unless a test arms it:
//
//   SWAT_FAULT_POINT("executor.execute");            // the crossing site
//   FaultInjector::global().arm(                     // the test
//       "executor.execute", {FaultKind::kThrow});
//
// Disarmed cost: one relaxed atomic load per crossing (the points sit on
// per-request / per-batch paths, never inside kernel loops). Armed
// crossings take a mutex, match the point by name, and perform the action:
//
//   kThrow — throw FaultInjectedError naming the point; the component's
//            normal exception path must turn it into clean per-ticket
//            rejection, never a hang.
//   kDelay — sleep for `delay` (or until the point is disarmed); models a
//            wedged executor or a slow queue, what the server watchdog and
//            the claim-round cut are armored against.
//   kWake  — invoke the crossing's registered waker (e.g. the admission
//            queue notifies its condition variables without any state
//            change): a genuine spurious wakeup, proving every wait loop
//            re-checks its predicate.
//
// Actions fire after `skip` crossings, `count` times (then auto-disarm;
// count < 0 = unlimited). Crossing/fire counters are kept per point so
// tests can assert a fault actually happened; counters are only tracked
// while the point is (or was) armed — the disarmed fast path counts
// nothing, by design.
//
// The registry is process-global (tests run serially per process;
// concurrent servers in one test share the points — also by design: the
// points name code sites, not instances). reset() restores the pristine
// no-op state between tests.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>

#include "common/units.hpp"

namespace swat {

/// The exception an armed kThrow crossing raises. Carries the point name
/// so a test can assert WHICH fault a ticket died of.
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const std::string& point)
      : std::runtime_error("injected fault at point '" + point + "'"),
        point_(point) {}
  const std::string& point() const { return point_; }

 private:
  std::string point_;
};

enum class FaultKind : std::uint8_t {
  kThrow,  ///< throw FaultInjectedError at the crossing
  kDelay,  ///< sleep `delay` at the crossing (stall / latency injection)
  kWake,   ///< invoke the crossing's waker (spurious wakeup injection)
};

struct FaultAction {
  FaultKind kind = FaultKind::kThrow;
  Seconds delay{};  ///< kDelay only: how long the crossing sleeps
  int skip = 0;     ///< crossings to let pass unharmed before firing
  int count = 1;    ///< times to fire, then auto-disarm; < 0 = unlimited
};

class FaultInjector {
 public:
  /// The process-global registry every SWAT_FAULT_POINT consults.
  static FaultInjector& global();

  /// Arm `point` with `action`. Re-arming replaces the previous action
  /// (counters persist). Thread-safe, like every method here.
  void arm(const std::string& point, FaultAction action);
  /// Disarm one point and end any of its kDelay sleeps still in flight
  /// early, so a test can hold a wedge open with a long delay and release
  /// it once the condition it waits for is seen. Its counters remain
  /// readable until reset().
  void disarm(const std::string& point);
  /// Disarm everything, end every delay in flight, and zero all counters
  /// — the pristine no-op state.
  void reset();

  /// Times the point was crossed while armed (skip included).
  std::uint64_t crossings(const std::string& point) const;
  /// Times the point actually fired its action.
  std::uint64_t fires(const std::string& point) const;
  /// True when any point is armed (the fast-path gate, for tests).
  bool armed() const {
    return armed_points_.load(std::memory_order_relaxed) != 0;
  }

  /// A crossing's spurious-wakeup hook: called only for kWake actions.
  using Waker = void (*)(void*);

  /// The injection point. No-op (one relaxed load) unless something is
  /// armed. kThrow actions throw FaultInjectedError out of this call.
  void crossing(const char* point, Waker waker = nullptr,
                void* ctx = nullptr) {
    if (armed_points_.load(std::memory_order_relaxed) == 0) return;
    crossing_slow(point, waker, ctx);
  }

 private:
  struct Point {
    FaultAction action;
    bool armed = false;
    std::uint64_t crossings = 0;
    std::uint64_t fires = 0;
    std::uint64_t releases = 0;  ///< disarm() calls; ends in-flight delays
  };

  void crossing_slow(const char* point, Waker waker, void* ctx);

  std::atomic<int> armed_points_{0};
  mutable std::mutex mutex_;
  std::condition_variable released_;  ///< kDelay sleeps wait on this
  std::map<std::string, Point> points_;
};

/// The crossing macro components place on their failure-relevant paths.
#define SWAT_FAULT_POINT(name) ::swat::FaultInjector::global().crossing(name)
#define SWAT_FAULT_POINT_WAKE(name, waker, ctx) \
  ::swat::FaultInjector::global().crossing(name, waker, ctx)

}  // namespace swat
