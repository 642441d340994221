// AdmissionQueue, the bounded MPMC hand-off between request submitters
// and the serving scheduler thread (src/runtime/server.hpp): one FIFO lane
// per SLO class, interactive drained first with aging so the low-priority
// lane is never starved, condition-variable backpressure, and an overload
// policy (kShedBulk) that sheds the bulk lane at a high-watermark while
// interactive keeps admitting.
//
// Design constraints, in order:
//  1. Bounded: the queue holds at most `capacity` items, so a burst of
//     submitters cannot grow memory without limit. What happens at the
//     bound is the admission policy: kBlock parks the producer on a
//     condition variable until space frees (backpressure), kReject refuses
//     the push immediately (load shedding — the caller fails the request),
//     kShedBulk rejects the bulk lane at the shed watermark and the
//     interactive lane only at full capacity — nothing ever blocks, the
//     production overload shape.
//  2. Clean shutdown: close() wakes every parked producer and consumer.
//     After close(), push() always fails, while pop() keeps draining the
//     items already admitted and only then reports exhaustion — nothing
//     admitted is ever silently dropped. discard() is the failure path:
//     take everything immediately so the caller can reject each item's
//     ticket cleanly instead of leaving it hung.
//  3. Simplicity over peak throughput: one mutex and two condition
//     variables. Items are whole inference requests (matrices), so the
//     per-item critical section is trivially cheap next to the payload;
//     a lock-free ring would buy nothing here.
//
// Fault points (common/fault_injection.hpp): "queue.push" and "queue.pop"
// cross at the AdmissionQueue entry points — latency injection models a
// slow admission path, kWake delivers a genuine spurious wakeup through
// poke() (every CV notified, no state changed), which the predicate-form
// waits must absorb.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/fault_injection.hpp"

namespace swat {

/// What push() does when the queue is at capacity.
enum class OverflowPolicy : std::uint8_t {
  kBlock,   ///< wait for a consumer to free a slot (backpressure)
  kReject,  ///< fail the push immediately (load shedding)
  /// Shed the bulk lane at the watermark, the interactive lane at full
  /// capacity; never block a submitter.
  kShedBulk,
};

/// Class-aware bounded MPMC admission structure: `Lanes` FIFO lanes under
/// one shared capacity, popped lane-0-first (the interactive SLO class)
/// with counter aging so lower lanes are never starved — after
/// `aging_interval` consecutive lane-0 pops while a lower lane waited, one
/// item from the oldest waiting lower lane is served.
///
/// Overflow policy, measured against the TOTAL occupancy:
///   kBlock    — any lane parks the producer until space frees;
///   kReject   — any lane fails at capacity;
///   kShedBulk — lanes > 0 fail once occupancy reaches `shed_watermark`
///               (reserving the remaining headroom for lane 0), lane 0
///               fails only at full capacity; nothing ever blocks.
template <typename T, std::size_t Lanes = 2>
class AdmissionQueue {
 public:
  static_assert(Lanes >= 1);

  /// Why a push was refused (kAdmitted means it was not).
  enum class Admission : std::uint8_t {
    kAdmitted,  ///< enqueued; the value was moved from
    kFull,      ///< at capacity (kReject, or lane 0 under kShedBulk)
    kShed,      ///< over the shed watermark (kShedBulk, lanes > 0)
    kClosed,    ///< the queue no longer admits
  };

  AdmissionQueue(std::size_t capacity, OverflowPolicy policy,
                 std::size_t shed_watermark, std::size_t aging_interval)
      : capacity_(capacity),
        policy_(policy),
        shed_watermark_(shed_watermark),
        aging_interval_(aging_interval) {
    SWAT_EXPECTS(capacity >= 1);
    SWAT_EXPECTS(shed_watermark >= 1 && shed_watermark <= capacity);
    SWAT_EXPECTS(aging_interval >= 1);
  }

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Enqueue into `lane`. The value is moved from only on kAdmitted.
  Admission push(T& value, std::size_t lane) {
    SWAT_EXPECTS(lane < Lanes);
    SWAT_FAULT_POINT_WAKE("queue.push", &AdmissionQueue::poke_raw, this);
    std::unique_lock lock(mutex_);
    if (policy_ == OverflowPolicy::kBlock) {
      not_full_.wait(lock, [&] { return closed_ || size_ < capacity_; });
    }
    if (closed_) return Admission::kClosed;
    if (policy_ == OverflowPolicy::kShedBulk && lane > 0 &&
        size_ >= shed_watermark_) {
      return Admission::kShed;
    }
    if (size_ >= capacity_) return Admission::kFull;
    lanes_[lane].push_back(std::move(value));
    ++size_;
    lock.unlock();
    not_empty_.notify_one();
    return Admission::kAdmitted;
  }

  /// Dequeue (item, lane), blocking while the queue is empty and open.
  /// Returns nullopt only once the queue is closed AND drained.
  std::optional<std::pair<T, std::size_t>> pop() {
    SWAT_FAULT_POINT_WAKE("queue.pop", &AdmissionQueue::poke_raw, this);
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || size_ > 0; });
    return take(lock);
  }

  /// Dequeue if immediately available; never blocks.
  std::optional<std::pair<T, std::size_t>> try_pop() {
    SWAT_FAULT_POINT_WAKE("queue.pop", &AdmissionQueue::poke_raw, this);
    std::unique_lock lock(mutex_);
    return take(lock);
  }

  /// Take everything still queued, immediately — the failure path: the
  /// caller rejects each item's ticket cleanly instead of leaving it to
  /// hang behind a scheduler that will never pop again. Items are returned
  /// in lane order (lane 0 first), FIFO within a lane.
  std::vector<std::pair<T, std::size_t>> discard() {
    std::vector<std::pair<T, std::size_t>> out;
    {
      std::lock_guard lock(mutex_);
      out.reserve(size_);
      for (std::size_t lane = 0; lane < Lanes; ++lane) {
        for (T& item : lanes_[lane]) out.emplace_back(std::move(item), lane);
        lanes_[lane].clear();
      }
      size_ = 0;
    }
    not_full_.notify_all();
    return out;
  }

  /// Stop admission. Idempotent. Parked producers fail their push; parked
  /// consumers drain the remaining items and then see exhaustion.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  /// A spurious wakeup on demand: notify every condition variable without
  /// changing any state. Every wait here is predicate-form, so a poke can
  /// never change an outcome — which is exactly what the kWake fault
  /// injection proves.
  void poke() {
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }
  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return size_;
  }
  std::size_t size(std::size_t lane) const {
    SWAT_EXPECTS(lane < Lanes);
    std::lock_guard lock(mutex_);
    return lanes_[lane].size();
  }
  std::size_t capacity() const { return capacity_; }
  OverflowPolicy policy() const { return policy_; }

 private:
  static void poke_raw(void* self) {
    static_cast<AdmissionQueue*>(self)->poke();
  }

  std::optional<std::pair<T, std::size_t>> take(
      std::unique_lock<std::mutex>& lock) {
    if (size_ == 0) return std::nullopt;
    const std::size_t lane = pick_lane();
    std::optional<std::pair<T, std::size_t>> value(
        std::in_place, std::move(lanes_[lane].front()), lane);
    lanes_[lane].pop_front();
    --size_;
    lock.unlock();
    not_full_.notify_one();
    return value;
  }

  /// Lane 0 first; aging serves one waiting lower-lane item after
  /// `aging_interval` consecutive lane-0 pops made while a lower lane had
  /// work. Requires size_ > 0.
  std::size_t pick_lane() {
    std::size_t lower = Lanes;  // oldest non-empty lane below interactive
    for (std::size_t lane = 1; lane < Lanes; ++lane) {
      if (!lanes_[lane].empty()) {
        lower = lane;
        break;
      }
    }
    if (lower == Lanes) {  // only lane 0 has work: no starvation possible
      lane0_streak_ = 0;
      return 0;
    }
    if (lanes_[0].empty() || lane0_streak_ >= aging_interval_) {
      lane0_streak_ = 0;
      return lower;
    }
    ++lane0_streak_;
    return 0;
  }

  const std::size_t capacity_;
  const OverflowPolicy policy_;
  const std::size_t shed_watermark_;
  const std::size_t aging_interval_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> lanes_[Lanes];
  std::size_t size_ = 0;          ///< total occupancy across lanes
  std::size_t lane0_streak_ = 0;  ///< consecutive lane-0 pops while lower waited
  bool closed_ = false;
};

}  // namespace swat
