// Serving-side observability types: SLO classes, per-class counters, and
// the server health snapshot.
//
// Under overload a server must decide WHICH work to drop and WHEN a
// request is already hopeless — and it must be able to show its work.
// This header is the vocabulary for both decisions:
//
//   * Priority — the SLO class a request is admitted under. kInteractive
//     is drained first by the scheduler; kBulk rides along and is the
//     class shed under OverflowPolicy::kShedBulk. Aging guarantees bulk is
//     never starved entirely (ServerOptions::bulk_aging_interval).
//   * DeadlineExceeded — the exception a ticket resolves with when the
//     cost model predicts (or observation confirms) the request cannot
//     meet its deadline, thrown BEFORE compute is spent on it.
//   * ClassStats / ServerStats — cumulative counters per class plus queue
//     depth and oldest-pending age; Server::stats() snapshots them.
//     Conservation, per class: every submitted ticket lands in exactly one
//     outcome bin, so at every snapshot
//       submitted == served + shed + deadline_shed + failed + (in flight)
//     `admitted` counts the subset that entered the admission queue
//     (deadline sheds happen on both sides of it: at submit when the
//     prediction alone exceeds the deadline, at claim when waiting
//     consumed the slack), and deadline_missed is a subset of served.
//   * ReplicaClassStats / ReplicaStats — the replica pool's half of the
//     ledger: per-replica, per-class outcome counters obeying their own
//     conservation identity (dispatched == served + failed + executing),
//     and summing to the front-end totals for everything that reached a
//     replica. ServerStats::replicas holds one per engine replica.
//   * ServerHealth / HealthState — the watchdog's view: kStalled while a
//     batch has overrun the cost-model stall threshold OR the pool is
//     degraded (a replica was quarantined but survivors keep serving),
//     kFailed once the scheduler died or every replica died (every ticket
//     was cleanly rejected, never hung), kShutdown after admission closed.
//     ReplicaHealth is the per-replica entry in ServerHealth::replicas.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace swat {

/// The SLO class a request is admitted under.
enum class Priority : std::uint8_t {
  kInteractive = 0,  ///< latency-sensitive; drained first, never shed first
  kBulk = 1,         ///< throughput traffic; shed at the overload watermark
};

inline constexpr std::size_t kPriorityClasses = 2;

constexpr const char* to_string(Priority p) {
  return p == Priority::kInteractive ? "interactive" : "bulk";
}

/// What a ticket resolves with when its request cannot (or did not) meet
/// its deadline and was failed before compute was spent on it.
class DeadlineExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Cumulative per-class counters. Every submitted ticket lands in exactly
/// one of: shed, deadline_shed, failed, or served (see the conservation
/// identity in the header comment).
struct ClassStats {
  std::int64_t submitted = 0;  ///< submit() calls for this class
  std::int64_t admitted = 0;   ///< entered the admission queue
  std::int64_t served = 0;     ///< resolved with a result
  /// Rejected at admission: queue full (kReject), over the bulk shed
  /// watermark (kShedBulk), malformed input, or server shut down.
  std::int64_t shed = 0;
  /// Failed with DeadlineExceeded before compute was spent: the cost
  /// model predicted the deadline unmeetable at submit (prediction alone
  /// exceeds it — never admitted) or at claim (queueing ate the slack).
  std::int64_t deadline_shed = 0;
  /// Served, but the result arrived after the request's deadline — an SLO
  /// violation that still returned an answer (a subset of served).
  std::int64_t deadline_missed = 0;
  /// Rejected after admission: the batch's executor failed (the exception
  /// is on the ticket) or the scheduler discarded the backlog on failure.
  std::int64_t failed = 0;
};

/// Per-class outcome counters for a single engine replica. Every request
/// dispatched to a replica lands in exactly one bin, so at every snapshot
///   dispatched == served + failed + (executing right now)
/// and, summed over replicas, served/deadline_missed equal the front-end
/// class counters (front-end `failed` may exceed the replica sum: requests
/// rejected before reaching a replica — scheduler death, total pool
/// failure — are charged to the front end only).
struct ReplicaClassStats {
  std::int64_t dispatched = 0;       ///< claimed off the replica's queue
  std::int64_t served = 0;           ///< resolved with a result
  std::int64_t deadline_missed = 0;  ///< served past deadline (⊆ served)
  std::int64_t failed = 0;           ///< batch execution or replica death
};

/// One engine replica's slice of the serving ledger
/// (ServerStats::replicas[i]).
struct ReplicaStats {
  ReplicaClassStats per_class[kPriorityClasses];
  std::int64_t batches = 0;          ///< batches this replica executed
  /// Always 0: replicas pull from one shared ready queue, so no batch is
  /// taken from another replica. Kept while perfbench still reports it.
  std::int64_t batches_stolen = 0;
  std::int64_t watchdog_stalls = 0;  ///< stall episodes on this replica
  /// The CPUs this replica is pinned to, in canonical cpulist form
  /// ("0-3,8"); empty on the process-wide pool (one replica, or more
  /// replicas than allowed CPUs).
  std::string core_group;
  /// Threads successfully pinned to core_group: the replica pool's
  /// workers plus the replica's own worker thread. 0 on the process-wide
  /// pool and on hosts without affinity support.
  int pinned_threads = 0;
  /// True once the replica died (its worker thread exited on an injected
  /// or real failure); a quarantined replica takes no further batches.
  bool quarantined = false;

  const ReplicaClassStats& of(Priority p) const {
    return per_class[static_cast<std::size_t>(p)];
  }
  ReplicaClassStats& of(Priority p) {
    return per_class[static_cast<std::size_t>(p)];
  }
  std::int64_t dispatched() const {
    return per_class[0].dispatched + per_class[1].dispatched;
  }
  std::int64_t served() const {
    return per_class[0].served + per_class[1].served;
  }
  std::int64_t failed() const {
    return per_class[0].failed + per_class[1].failed;
  }
  /// Requests claimed by this replica and not yet resolved either way.
  std::int64_t in_flight() const {
    return dispatched() - served() - failed();
  }
};

/// Snapshot of the server's cumulative serving ledger (Server::stats()).
struct ServerStats {
  ClassStats per_class[kPriorityClasses];
  std::vector<ReplicaStats> replicas;  ///< one entry per engine replica
  std::size_t queue_depth = 0;       ///< admitted, not yet claimed
  Seconds oldest_pending_age{};      ///< oldest admitted-but-unresolved
  std::int64_t batches = 0;          ///< batches successfully executed
  std::int64_t watchdog_stalls = 0;  ///< distinct stall episodes flagged

  const ClassStats& of(Priority p) const {
    return per_class[static_cast<std::size_t>(p)];
  }
  ClassStats& of(Priority p) {
    return per_class[static_cast<std::size_t>(p)];
  }
};

enum class HealthState : std::uint8_t {
  kHealthy,   ///< scheduler live, no overrunning batch
  kStalled,   ///< the executing batch has overrun the watchdog threshold
  kFailed,    ///< the scheduler died; all pending tickets were rejected
  kShutdown,  ///< admission closed (shutdown() or destruction)
};

constexpr const char* to_string(HealthState s) {
  switch (s) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kStalled: return "stalled";
    case HealthState::kFailed: return "failed";
    case HealthState::kShutdown: return "shutdown";
  }
  return "?";
}

/// One replica's liveness entry in ServerHealth::replicas. kFailed means
/// this replica is quarantined (the pool may still be serving); kStalled
/// means its current batch has overrun the watchdog threshold.
struct ReplicaHealth {
  HealthState state = HealthState::kHealthy;
  /// Age of the batch this replica is executing (zero when idle).
  Seconds current_batch_age{};
  std::int64_t watchdog_stalls = 0;  ///< stall episodes on this replica

  bool ok() const { return state == HealthState::kHealthy; }
};

/// The watchdog's liveness snapshot (Server::health()). The top-level
/// state is the pool roll-up: kFailed only when serving stopped entirely
/// (scheduler death or every replica dead); a quarantined replica or an
/// overrunning batch degrades the pool to kStalled while survivors serve.
struct ServerHealth {
  HealthState state = HealthState::kHealthy;
  std::vector<ReplicaHealth> replicas;  ///< one entry per engine replica
  std::int64_t watchdog_stalls = 0;  ///< distinct stall episodes so far
  /// Age of the oldest currently executing batch (zero when all idle).
  Seconds current_batch_age{};
  Seconds oldest_pending_age{};
  std::size_t queue_depth = 0;

  bool ok() const { return state == HealthState::kHealthy; }
};

}  // namespace swat
