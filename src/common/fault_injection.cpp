#include "common/fault_injection.hpp"

#include <chrono>

namespace swat {

FaultInjector& FaultInjector::global() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::arm(const std::string& point, FaultAction action) {
  std::lock_guard lock(mutex_);
  Point& p = points_[point];
  if (!p.armed) armed_points_.fetch_add(1, std::memory_order_relaxed);
  p.armed = true;
  p.action = action;
}

void FaultInjector::disarm(const std::string& point) {
  std::lock_guard lock(mutex_);
  const auto it = points_.find(point);
  if (it == points_.end()) return;
  ++it->second.releases;
  released_.notify_all();
  if (!it->second.armed) return;
  it->second.armed = false;
  armed_points_.fetch_sub(1, std::memory_order_relaxed);
}

void FaultInjector::reset() {
  std::lock_guard lock(mutex_);
  points_.clear();
  armed_points_.store(0, std::memory_order_relaxed);
  released_.notify_all();
}

std::uint64_t FaultInjector::crossings(const std::string& point) const {
  std::lock_guard lock(mutex_);
  const auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.crossings;
}

std::uint64_t FaultInjector::fires(const std::string& point) const {
  std::lock_guard lock(mutex_);
  const auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.fires;
}

void FaultInjector::crossing_slow(const char* point, Waker waker, void* ctx) {
  FaultKind kind;
  Seconds delay;
  std::uint64_t releases;
  {
    std::lock_guard lock(mutex_);
    const auto it = points_.find(point);
    if (it == points_.end() || !it->second.armed) return;
    Point& p = it->second;
    ++p.crossings;
    if (p.action.skip > 0) {
      --p.action.skip;
      return;
    }
    ++p.fires;
    kind = p.action.kind;
    delay = p.action.delay;
    releases = p.releases;
    if (p.action.count > 0 && --p.action.count == 0) {
      p.armed = false;
      armed_points_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  // Act outside the lock: a sleeping or throwing crossing must never hold
  // the registry hostage (other points keep working while this one fires;
  // the delay's wait releases the mutex while it sleeps).
  switch (kind) {
    case FaultKind::kThrow:
      throw FaultInjectedError(point);
    case FaultKind::kDelay: {
      std::unique_lock lock(mutex_);
      released_.wait_for(
          lock, std::chrono::duration<double>(delay.value), [&] {
            const auto it = points_.find(point);
            return it == points_.end() || it->second.releases != releases;
          });
      break;
    }
    case FaultKind::kWake:
      if (waker != nullptr) waker(ctx);
      break;
  }
}

}  // namespace swat
