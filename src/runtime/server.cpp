#include "runtime/server.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <latch>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/contracts.hpp"
#include "common/fault_injection.hpp"

namespace swat {

namespace {

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

std::string ms_string(double seconds) {
  return std::to_string(seconds * 1e3) + " ms";
}

/// ServerOptions::shed_watermark is a fraction of queue_capacity; the
/// AdmissionQueue wants absolute slots in [1, capacity].
std::size_t shed_watermark_slots(const ServerOptions& opt) {
  const auto slots = static_cast<std::size_t>(
      opt.shed_watermark * static_cast<double>(opt.queue_capacity));
  return std::clamp<std::size_t>(slots, 1, opt.queue_capacity);
}

/// First element of `m` that is NaN or +-Inf, as (row, col). One
/// non-allocating pass: each row is screened by a branch-free OR over
/// "exponent bits all set" (vectorizable), and only a poisoned row is
/// rescanned to find the column.
std::optional<std::pair<std::int64_t, std::int64_t>> first_non_finite(
    const MatrixF& m) {
  constexpr std::uint32_t kExponent = 0x7F800000u;
  for (std::int64_t r = 0; r < m.rows(); ++r) {
    const std::span<const float> row = m.row(r);
    std::uint32_t poisoned = 0;
    for (const float x : row) {
      poisoned |= static_cast<std::uint32_t>(
          (std::bit_cast<std::uint32_t>(x) & kExponent) == kExponent);
    }
    if (poisoned == 0) continue;
    for (std::int64_t c = 0; c < m.cols(); ++c) {
      if (!std::isfinite(row[static_cast<std::size_t>(c)])) return {{r, c}};
    }
  }
  return std::nullopt;
}

}  // namespace

void ServerOptions::validate() const {
  batching.validate();
  if (queue_capacity < 1) {
    throw std::invalid_argument(
        "ServerOptions: queue_capacity must be >= 1, got " +
        std::to_string(queue_capacity) +
        " — the admission queue must be able to hold at least one request");
  }
  if (!(shed_watermark > 0.0) || shed_watermark > 1.0) {
    throw std::invalid_argument(
        "ServerOptions: shed_watermark must be in (0, 1] — it is the "
        "fraction of queue_capacity at which kShedBulk sheds the bulk "
        "lane — got " +
        std::to_string(shed_watermark));
  }
  if (bulk_aging_interval < 1) {
    throw std::invalid_argument(
        "ServerOptions: bulk_aging_interval must be >= 1 (serve one "
        "waiting bulk request after this many consecutive interactive "
        "pops), got " +
        std::to_string(bulk_aging_interval));
  }
  if (!(default_deadline.value >= 0.0)) {
    throw std::invalid_argument(
        "ServerOptions: default_deadline must be >= 0 seconds (0 means "
        "no default deadline), got " +
        std::to_string(default_deadline.value));
  }
  if (watchdog_multiplier != 0.0 && !(watchdog_multiplier >= 1.0)) {
    throw std::invalid_argument(
        "ServerOptions: watchdog_multiplier must be 0 (watchdog disabled) "
        "or >= 1 — a stall threshold below the predicted service time "
        "itself would flag every healthy batch — got " +
        std::to_string(watchdog_multiplier));
  }
  if (!(watchdog_grace.value >= 0.0)) {
    throw std::invalid_argument(
        "ServerOptions: watchdog_grace must be >= 0 seconds (the absolute "
        "floor added to the stall threshold), got " +
        std::to_string(watchdog_grace.value));
  }
  if (num_replicas < 1 || num_replicas > 256) {
    throw std::invalid_argument(
        "ServerOptions: num_replicas must be in [1, 256] — the pool needs "
        "at least one engine replica, and more replicas than any host this "
        "serves has core groups is a configuration error — got " +
        std::to_string(num_replicas));
  }
  if (replica_queue_depth > 64) {
    throw std::invalid_argument(
        "ServerOptions: replica_queue_depth must be <= 64 — 0 dispatches "
        "only to idle replicas (the single-engine claim order), small "
        "depths pipeline dispatch with execution; claiming dozens of "
        "batches ahead per replica would just defeat class-aware "
        "admission — got " +
        std::to_string(replica_queue_depth));
  }
}

Server::Server(model::EncoderConfig cfg, ServerOptions opt)
    : opt_((opt.validate(), opt)),
      cost_model_(std::make_unique<BatchCostModel>(cfg)),
      queue_(opt.queue_capacity, opt.admission, shed_watermark_slots(opt),
             opt.bulk_aging_interval) {
  // A multi-replica pool carves the allowed cpuset (online ∩ process
  // affinity ∩ SWAT_CPUSET) into one locality-ordered core group per
  // replica. An empty partition (more replicas than allowed CPUs) means
  // the host cannot give every replica at least one core: every replica
  // then stays on the process-wide pool rather than oversubscribe. One
  // replica keeps the process-wide pool, which SWAT_THREADS sizes.
  const std::vector<CpuSet> groups =
      opt_.num_replicas > 1 ? discover_topology().partition(opt_.num_replicas)
                            : std::vector<CpuSet>{};
  replica_stats_.resize(opt_.num_replicas);
  replicas_.reserve(opt_.num_replicas);
  for (std::size_t r = 0; r < opt_.num_replicas; ++r) {
    auto replica = std::make_unique<Replica>();
    if (!groups.empty()) {
      replica->core_group = groups[r];
      // The pool never needs more threads than its group has CPUs, nor
      // more than the global SWAT_THREADS budget.
      replica->pool = std::make_unique<ThreadPool>(
          std::min(replica->core_group.count(), swat::num_threads()),
          replica->core_group);
    }
    // Replica 0 packs the weights (its parallel pack fill runs on its own
    // pool); every other replica shares that one read-only pack.
    if (r == 0) {
      replica->executor = std::make_unique<BatchExecutor>(
          cfg, opt_.batching, replica->pool.get());
    } else {
      replica->executor = std::make_unique<BatchExecutor>(
          *replicas_.front()->executor, opt_.batching, replica->pool.get());
    }
    replicas_.push_back(std::move(replica));
  }
  live_replicas_ = opt_.num_replicas;
  // Each pinned replica's worker joins its core group before the
  // constructor returns, so pinned_threads counts it from the first
  // stats() call on. The worker is the caller thread of every
  // parallel_for the replica's engine issues, so leaving it roaming would
  // leak one thread's worth of compute off the partition.
  std::latch workers_placed(static_cast<std::ptrdiff_t>(opt_.num_replicas));
  for (std::size_t r = 0; r < opt_.num_replicas; ++r) {
    replicas_[r]->worker = std::thread([this, r, &workers_placed] {
      Replica& self = *replicas_[r];
      if (self.pool != nullptr && pin_current_thread(self.core_group)) {
        self.pinned_threads.fetch_add(1, std::memory_order_relaxed);
      }
      workers_placed.count_down();
      replica_loop(r);
    });
  }
  workers_placed.wait();
  if (opt_.watchdog_multiplier > 0.0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

Server::~Server() { shutdown(); }

Server::Ticket Server::submit(InferenceRequest request) {
  const std::size_t lane = static_cast<std::size_t>(request.priority);
  SWAT_EXPECTS(lane < kPriorityClasses);
  std::promise<RequestResult> promise;
  Ticket ticket = promise.get_future();
  {
    std::lock_guard lock(state_mutex_);
    ++class_stats_[lane].submitted;
  }

  // Malformed inputs fail their own ticket instead of poisoning the
  // scheduler thread rows deep into a forward pass — or, for a NaN/Inf
  // element, failing every batch-mate of the fused attention call.
  const std::int64_t d_model = encoder().config().d_model;
  std::string malformed;
  if (request.input.rows() < 1 || request.input.cols() != d_model) {
    malformed =
        "Server::submit: input must be seq_len x d_model with seq_len >= 1 "
        "(got " +
        std::to_string(request.input.rows()) + " x " +
        std::to_string(request.input.cols()) + ", d_model " +
        std::to_string(d_model) + ")";
  } else if (!(request.deadline.value >= 0.0)) {
    malformed = "Server::submit: deadline must be >= 0 seconds (0 means "
                "none), got " +
                std::to_string(request.deadline.value);
  } else if (const auto bad = first_non_finite(request.input)) {
    const auto [row, col] = *bad;
    malformed = "Server::submit: input element (" + std::to_string(row) +
                ", " + std::to_string(col) + ") is " +
                std::to_string(request.input(row, col)) +
                " — every input element must be finite";
  }
  if (!malformed.empty()) {
    {
      std::lock_guard lock(state_mutex_);
      ++class_stats_[lane].shed;
    }
    promise.set_exception(
        std::make_exception_ptr(std::invalid_argument(malformed)));
    return ticket;
  }

  // A request whose deadline the cost model says is unmeetable even if it
  // ran this instant is hopeless: fail it now, before it occupies a queue
  // slot, let alone compute.
  const Seconds deadline = request.deadline.value > 0.0
                               ? request.deadline
                               : opt_.default_deadline;
  if (deadline.value > 0.0) {
    const Seconds predicted =
        cost_model_->request_seconds(request.input.rows());
    if (predicted.value > deadline.value) {
      {
        std::lock_guard lock(state_mutex_);
        ++class_stats_[lane].deadline_shed;
      }
      promise.set_exception(std::make_exception_ptr(DeadlineExceeded(
          "Server::submit: predicted service time " +
          ms_string(predicted.value) + " alone exceeds the deadline " +
          ms_string(deadline.value) + " — shed at admission, no compute "
          "spent")));
      return ticket;
    }
  }

  Pending pending{std::move(request), std::move(promise),
                  std::chrono::steady_clock::now(), deadline, 0};
  // Ledger the admission BEFORE the push: the scheduler may serve the
  // request (bumping completed_) before we regain the lock, and drain()
  // must never observe completed_ > admitted_.
  {
    std::lock_guard lock(state_mutex_);
    pending.seq = next_seq_++;
    ++admitted_;
    ++class_stats_[lane].admitted;
    outstanding_.emplace(pending.seq, pending.admitted);
  }

  using Admission = AdmissionQueue<Pending, kPriorityClasses>::Admission;
  Admission admission = Admission::kClosed;
  std::exception_ptr push_error;
  try {
    admission = queue_.push(pending, lane);
  } catch (...) {
    // A fault injected at the "queue.push" crossing: the push never
    // happened, so resolve the ticket as a shed with the injected error.
    push_error = std::current_exception();
  }
  if (admission != Admission::kAdmitted) {
    // push() moves from `pending` only on admission, so the promise is
    // still ours to reject.
    {
      std::lock_guard lock(state_mutex_);
      --admitted_;
      --class_stats_[lane].admitted;
      ++class_stats_[lane].shed;
      outstanding_.erase(pending.seq);
    }
    drained_cv_.notify_all();
    if (!push_error) {
      std::string what;
      switch (admission) {
        case Admission::kClosed:
          what = "Server::submit: server is shut down";
          break;
        case Admission::kShed:
          what = "Server::submit: bulk admission shed at the overload "
                 "watermark (" +
                 std::to_string(shed_watermark_slots(opt_)) + " of capacity " +
                 std::to_string(opt_.queue_capacity) +
                 ", policy kShedBulk) — headroom reserved for interactive";
          break;
        default:
          what = "Server::submit: admission queue full (capacity " +
                 std::to_string(opt_.queue_capacity) + ", policy " +
                 (opt_.admission == OverflowPolicy::kShedBulk ? "kShedBulk"
                                                              : "kReject") +
                 ") — request shed";
          break;
      }
      push_error = std::make_exception_ptr(std::runtime_error(what));
    }
    pending.promise.set_exception(push_error);
  }
  return ticket;
}

std::vector<Server::Ticket> Server::submit_many(
    std::vector<InferenceRequest> requests) {
  std::vector<Ticket> tickets;
  tickets.reserve(requests.size());
  for (InferenceRequest& req : requests) {
    tickets.push_back(submit(std::move(req)));
  }
  return tickets;
}

void Server::drain() {
  std::unique_lock lock(state_mutex_);
  drained_cv_.wait(lock, [&] { return completed_ == admitted_; });
}

void Server::shutdown() {
  std::lock_guard lock(shutdown_mutex_);
  queue_.close();
  // Order matters: the scheduler drains the admission queue and queues
  // every remaining batch first; only then may the workers be told to
  // exit once the ready queue runs dry — every admitted ticket resolves.
  if (scheduler_.joinable()) scheduler_.join();
  {
    std::lock_guard pool_lock(pool_mutex_);
    pool_stop_ = true;
  }
  pool_cv_.notify_all();
  for (auto& replica : replicas_) {
    if (replica->worker.joinable()) replica->worker.join();
  }
  {
    std::lock_guard watch_lock(watch_mutex_);
    watch_stop_ = true;
  }
  watch_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

RuntimeTotals Server::totals() const {
  std::lock_guard lock(state_mutex_);
  return totals_;
}

ServerStats Server::stats() const {
  ServerStats stats;
  const auto now = std::chrono::steady_clock::now();
  {
    std::lock_guard lock(state_mutex_);
    for (std::size_t i = 0; i < kPriorityClasses; ++i) {
      stats.per_class[i] = class_stats_[i];
    }
    stats.replicas = replica_stats_;
    stats.batches = totals_.batches;
    if (!outstanding_.empty()) {
      stats.oldest_pending_age =
          Seconds{seconds_between(outstanding_.begin()->second, now)};
    }
  }
  // The stall counters live on the replicas as atomics (the watchdog
  // bumps them without the ledger lock); overlay them onto the snapshot.
  // Placement fields ride the same overlay: core_group is immutable
  // after construction, pinned_threads is an atomic the pool and the
  // worker bump as their pin calls land.
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    stats.replicas[r].watchdog_stalls =
        replicas_[r]->stalls.load(std::memory_order_relaxed);
    stats.replicas[r].core_group = replicas_[r]->core_group.to_string();
    stats.replicas[r].pinned_threads =
        replicas_[r]->pinned_threads.load(std::memory_order_relaxed) +
        (replicas_[r]->pool != nullptr
             ? replicas_[r]->pool->pinned_workers()
             : 0);
  }
  stats.queue_depth = queue_.size();
  stats.watchdog_stalls = watchdog_stalls_.load(std::memory_order_relaxed);
  return stats;
}

ServerHealth Server::health() const {
  ServerHealth health;
  const auto now = std::chrono::steady_clock::now();
  bool failed = false;
  {
    std::lock_guard lock(state_mutex_);
    failed = failed_;
    if (!outstanding_.empty()) {
      health.oldest_pending_age =
          Seconds{seconds_between(outstanding_.begin()->second, now)};
    }
  }
  health.replicas.resize(replicas_.size());
  {
    std::lock_guard lock(watch_mutex_);
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
      if (!replicas_[r]->exec_active) continue;
      const Seconds age{seconds_between(replicas_[r]->exec_start, now)};
      health.replicas[r].current_batch_age = age;
      health.current_batch_age =
          Seconds{std::max(health.current_batch_age.value, age.value)};
    }
  }
  bool degraded = false;
  {
    std::lock_guard lock(pool_mutex_);
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
      if (replicas_[r]->dead) {
        health.replicas[r].state = HealthState::kFailed;
        degraded = true;
      }
    }
  }
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    health.replicas[r].watchdog_stalls =
        replicas_[r]->stalls.load(std::memory_order_relaxed);
    if (health.replicas[r].state == HealthState::kHealthy &&
        replicas_[r]->stalled_now.load(std::memory_order_relaxed)) {
      health.replicas[r].state = HealthState::kStalled;
      degraded = true;
    }
  }
  health.queue_depth = queue_.size();
  health.watchdog_stalls = watchdog_stalls_.load(std::memory_order_relaxed);
  // A dead or stalled replica degrades the pool (kStalled) while the
  // survivors keep serving; kFailed is reserved for serving having
  // stopped entirely.
  health.state = failed ? HealthState::kFailed
                 : queue_.closed()
                     ? HealthState::kShutdown
                     : degraded ? HealthState::kStalled
                                : HealthState::kHealthy;
  return health;
}

std::size_t Server::plan_count() const {
  std::size_t total = 0;
  for (const auto& replica : replicas_) {
    total += replica->executor->plan_count();
  }
  return total;
}

std::size_t Server::plan_arena_floats() const {
  std::size_t total = 0;
  for (const auto& replica : replicas_) {
    total += replica->executor->plan_arena_floats();
  }
  return total;
}

std::size_t Server::packed_weight_floats() const {
  std::size_t total = 0;
  for (const auto& replica : replicas_) {
    total += replica->executor->packed_weight_floats();
  }
  return total;
}

const model::Encoder& Server::encoder() const {
  return replicas_.front()->executor->encoder();
}

void Server::scheduler_loop() {
  BatchFormer former(opt_.batching, cost_model_.get());
  std::map<std::size_t, Pending> inflight;
  std::size_t next_index = 0;

  // Claim round: the requests already admitted behind the one that opened
  // the round. The scheduler takes at most that many more before it cuts,
  // so a backlog forms full batches, yet a request in a sparse length
  // class waits at most one round even when the queue never empties.
  std::size_t round_left = 0;

  const auto dispatch_ready = [&] {
    while (former.has_ready()) dispatch_batch(former.pop_ready(), inflight);
  };

  try {
    for (;;) {
      std::optional<std::pair<Pending, std::size_t>> claimed;
      if (former.pending_requests() == 0) {
        // Idle: park until work arrives — but only claim when the pool
        // can actually take a batch. Claiming ahead of replica capacity
        // would drain the class-aware admission queue into the FIFO ready
        // queue, silently erasing the interactive-first claim order and
        // the watermark backpressure kShedBulk watches.
        wait_for_dispatch_room();
        claimed = queue_.pop();  // park until work arrives or close
        if (!claimed) break;     // closed and fully drained
        round_left = queue_.size();
      } else if (round_left > 0) {
        --round_left;
        claimed = queue_.try_pop();
      }
      if (claimed) {
        Pending pending = std::move(claimed->first);
        // Claim-time deadline check: queueing may have consumed the slack
        // the submit-time check still saw. Shed before any compute.
        if (pending.deadline.value > 0.0) {
          const Seconds waited{seconds_between(
              pending.admitted, std::chrono::steady_clock::now())};
          const Seconds slack = cost_model_->deadline_slack(
              pending.request.input.rows(), pending.deadline, waited);
          if (slack.value <= 0.0) {
            const std::size_t lane =
                static_cast<std::size_t>(pending.request.priority);
            pending.promise.set_exception(std::make_exception_ptr(
                DeadlineExceeded("Server: deadline exceeded before "
                                 "execution (deadline " +
                                 ms_string(pending.deadline.value) +
                                 ", waited " + ms_string(waited.value) +
                                 ") — shed, no compute spent")));
            {
              std::lock_guard lock(state_mutex_);
              ++class_stats_[lane].deadline_shed;
              outstanding_.erase(pending.seq);
              ++completed_;
            }
            drained_cv_.notify_all();
            continue;
          }
        }
        const Priority priority = pending.request.priority;
        const std::int64_t length = pending.request.input.rows();
        const std::size_t index = next_index++;
        inflight.emplace(index, std::move(pending));
        former.push(index, length, priority);
      } else {
        // The claim round is spent, or the arrival queue went momentarily
        // empty, while batches are open: cut now. Work conservation — a
        // scheduler that idles on a partial batch only adds queue latency,
        // never width.
        former.flush();
      }
      dispatch_ready();
    }
    // close() raced a final flush at most: cut and place whatever remains
    // so every admitted ticket resolves.
    former.flush();
    dispatch_ready();
    SWAT_ENSURES(inflight.empty());
  } catch (...) {
    // The scheduler itself died (e.g. an injected fault at the
    // "queue.pop", "batcher.push", or "dispatch.place" crossing, or the
    // last replica dying under it) — this thread is about to exit, so
    // anything admitted would hang forever. Reject everything cleanly
    // instead. Batch-level executor failures never reach here:
    // run_on_replica contains them on the worker threads.
    scheduler_failed(std::current_exception(), inflight);
  }
}

bool Server::dispatch_unblocked() const {
  if (live_replicas_ == 0) return true;  // dispatch_batch will report it
  // Claim-ahead bound: K batches per live replica, and at K = 0 one per
  // idle live replica — only an idle replica gets work.
  std::size_t idle = 0;
  for (const auto& replica : replicas_) {
    if (!replica->dead && !replica->executing) ++idle;
  }
  return ready_.size() <
         std::max(opt_.replica_queue_depth * live_replicas_, idle);
}

void Server::wait_for_dispatch_room() {
  std::unique_lock lock(pool_mutex_);
  pool_cv_.wait(lock, [&] { return dispatch_unblocked(); });
}

void Server::dispatch_batch(BatchPlanEntry entry,
                            std::map<std::size_t, Pending>& inflight) {
  // Resilience hook: a throw at this crossing is scheduler-fatal (the
  // dispatcher itself broke, not one replica) — the batch's members are
  // still in `inflight`, so scheduler_failed rejects them cleanly.
  SWAT_FAULT_POINT("dispatch.place");
  ReadyBatch batch;
  batch.predicted = cost_model_->predict(entry);
  batch.members.reserve(entry.request_indices.size());
  for (const std::size_t index : entry.request_indices) {
    const auto it = inflight.find(index);
    SWAT_ENSURES(it != inflight.end());
    batch.members.push_back(std::move(it->second));
    inflight.erase(it);
  }
  batch.entry = std::move(entry);
  {
    std::unique_lock lock(pool_mutex_);
    pool_cv_.wait(lock, [&] { return dispatch_unblocked(); });
    if (live_replicas_ == 0) {
      // Total pool failure. Put the members back so scheduler_failed (in
      // our caller's catch) rejects every one of them.
      lock.unlock();
      for (std::size_t i = 0; i < batch.members.size(); ++i) {
        inflight.emplace(batch.entry.request_indices[i],
                         std::move(batch.members[i]));
      }
      throw std::runtime_error(
          "Server: every engine replica has failed — the pool cannot "
          "execute further batches");
    }
    ready_.push_back(std::move(batch));
  }
  pool_cv_.notify_all();
}

void Server::replica_loop(std::size_t r) {
  for (;;) {
    std::optional<ReadyBatch> batch = next_batch(r);
    if (!batch) return;
    {
      // Ledger the claim before the execution attempt: a replica dying
      // with this batch in hand must still satisfy the per-replica
      // conservation law (dispatched == served + failed + executing).
      std::lock_guard lock(state_mutex_);
      ReplicaStats& mine = replica_stats_[r];
      mine.of(batch->entry.priority).dispatched += batch->entry.requests();
    }
    try {
      // Resilience hook: a throw HERE — unlike one inside
      // BatchExecutor::execute_in_place, which run_on_replica contains as a
      // batch-level failure — kills the replica itself: quarantine, not
      // batch retry, is the recovery.
      SWAT_FAULT_POINT("replica.execute");
      run_on_replica(r, *batch);
    } catch (...) {
      replica_failed(r, std::move(*batch), std::current_exception());
      return;
    }
  }
}

std::optional<Server::ReadyBatch> Server::next_batch(std::size_t r) {
  std::unique_lock lock(pool_mutex_);
  pool_cv_.wait(lock, [&] { return !ready_.empty() || pool_stop_; });
  if (ready_.empty()) return std::nullopt;  // stopped and drained
  ReadyBatch batch = std::move(ready_.front());
  ready_.pop_front();
  replicas_[r]->executing = true;
  lock.unlock();
  pool_cv_.notify_all();  // the dispatcher may have room now
  return batch;
}

void Server::run_on_replica(std::size_t r, ReadyBatch& batch) {
  const BatchPlanEntry& entry = batch.entry;
  std::vector<Pending>& members = batch.members;
  const std::size_t n = members.size();
  const std::size_t lane = static_cast<std::size_t>(entry.priority);
  const auto start = std::chrono::steady_clock::now();

  // Each member is served in its own input buffer, which becomes its
  // output: nothing reads a member's request after execution, and a failed
  // batch is never re-executed.
  std::vector<InferenceRequest*> requests;
  requests.reserve(n);
  for (Pending& member : members) requests.push_back(&member.request);

  // Stamp this replica's watchdog slot: it flags a stall once the batch's
  // age exceeds grace + multiplier * this prediction.
  exec_begin(r, batch.predicted);
  try {
    std::vector<RequestResult> results =
        replicas_[r]->executor->execute_in_place(entry, requests);
    exec_end(r);
    const auto finish = std::chrono::steady_clock::now();
    // No NaN or Inf output is returned as a success: a member whose output
    // is not finite (finite inputs can still overflow the fused kernel's
    // Eq. 1 exponent) fails only its own ticket.
    std::vector<std::string> non_finite(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (const auto bad = first_non_finite(results[i].output)) {
        non_finite[i] = "Server: output element (" +
                        std::to_string(bad->first) + ", " +
                        std::to_string(bad->second) + ") of request " +
                        std::to_string(results[i].id) +
                        " is not finite — the result is withheld";
      }
    }
    std::int64_t batch_index = 0;
    {
      std::lock_guard lock(state_mutex_);
      batch_index = totals_.batches++;
      totals_.weight_stream_bytes += cost_model_->weight_stream_bytes();
      for (std::size_t i = 0; i < n; ++i) {
        if (non_finite[i].empty()) totals_.accumulate(results[i].counters);
      }
    }
    std::int64_t missed = 0;
    std::int64_t failed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!non_finite[i].empty()) {
        ++failed;
        members[i].promise.set_exception(
            std::make_exception_ptr(std::runtime_error(non_finite[i])));
        continue;
      }
      results[i].counters.batch_index = batch_index;
      results[i].counters.queue_delay =
          Seconds{seconds_between(members[i].admitted, start)};
      const Seconds turnaround{seconds_between(members[i].admitted, finish)};
      results[i].counters.turnaround = turnaround;
      // Served late is still served — the SLO violation is ledgered, the
      // caller still gets the answer.
      if (members[i].deadline.value > 0.0 &&
          turnaround.value > members[i].deadline.value) {
        ++missed;
      }
      members[i].promise.set_value(std::move(results[i]));
    }
    {
      std::lock_guard lock(state_mutex_);
      const std::int64_t served = static_cast<std::int64_t>(n) - failed;
      class_stats_[lane].served += served;
      class_stats_[lane].failed += failed;
      class_stats_[lane].deadline_missed += missed;
      ReplicaClassStats& mine = replica_stats_[r].per_class[lane];
      mine.served += served;
      mine.failed += failed;
      mine.deadline_missed += missed;
      ++replica_stats_[r].batches;
      for (const Pending& member : members) outstanding_.erase(member.seq);
      completed_ += n;
    }
  } catch (...) {
    exec_end(r);
    // A failed batch fails every member ticket and ONLY them — the
    // replica keeps serving. Completed-or-rejected, never hung.
    for (Pending& member : members) {
      member.promise.set_exception(std::current_exception());
    }
    {
      std::lock_guard lock(state_mutex_);
      class_stats_[lane].failed += static_cast<std::int64_t>(n);
      replica_stats_[r].per_class[lane].failed +=
          static_cast<std::int64_t>(n);
      for (const Pending& member : members) outstanding_.erase(member.seq);
      completed_ += n;
    }
  }
  {
    std::lock_guard lock(pool_mutex_);
    replicas_[r]->executing = false;
  }
  pool_cv_.notify_all();  // the dispatcher may have room now
  drained_cv_.notify_all();
}

void Server::replica_failed(std::size_t r, ReadyBatch batch,
                            std::exception_ptr error) noexcept {
  exec_end(r);
  const std::size_t lane = static_cast<std::size_t>(batch.entry.priority);
  // Reject exactly the batch this replica had claimed. run_on_replica may
  // already have resolved the members on an unexpected late throw, so
  // tolerate already-satisfied promises.
  std::int64_t rejected = 0;
  for (Pending& member : batch.members) {
    try {
      member.promise.set_exception(error);
      ++rejected;
    } catch (const std::future_error&) {
    }
  }
  // Queued batches stay in the ready queue for the survivors. The last
  // death takes them: dispatch_batch checks live_replicas_ under the same
  // lock before it appends, so nothing lands behind this swap.
  std::deque<ReadyBatch> orphaned;
  std::size_t live = 0;
  {
    std::lock_guard lock(pool_mutex_);
    Replica& self = *replicas_[r];
    self.dead = true;
    self.executing = false;
    live = --live_replicas_;
    if (live == 0) orphaned.swap(ready_);
  }
  {
    std::lock_guard lock(state_mutex_);
    replica_stats_[r].quarantined = true;
    if (rejected > 0) {
      replica_stats_[r].per_class[lane].failed += rejected;
      class_stats_[lane].failed += rejected;
      for (const Pending& member : batch.members) {
        outstanding_.erase(member.seq);
      }
      completed_ += static_cast<std::size_t>(rejected);
    }
  }
  if (live == 0) {
    // The last replica died: serving has stopped. Close admission and
    // cleanly reject everything still pending — queued batches, then the
    // admission backlog.
    queue_.close();
    std::vector<std::pair<Pending, std::size_t>> queued = queue_.discard();
    std::lock_guard lock(state_mutex_);
    failed_ = true;
    for (ReadyBatch& orphan : orphaned) {
      const std::size_t orphan_lane =
          static_cast<std::size_t>(orphan.entry.priority);
      for (Pending& member : orphan.members) {
        try {
          member.promise.set_exception(error);
        } catch (const std::future_error&) {
        }
        ++class_stats_[orphan_lane].failed;
        outstanding_.erase(member.seq);
        ++completed_;
      }
    }
    for (auto& [pending, pending_lane] : queued) {
      try {
        pending.promise.set_exception(error);
      } catch (const std::future_error&) {
      }
      ++class_stats_[pending_lane].failed;
      outstanding_.erase(pending.seq);
      ++completed_;
    }
  }
  pool_cv_.notify_all();
  drained_cv_.notify_all();
}

void Server::scheduler_failed(std::exception_ptr error,
                              std::map<std::size_t, Pending>& inflight)
    noexcept {
  // Close FIRST: push() checks closed_ under the queue mutex, so once
  // discard() has run nothing can land in the queue behind the dead
  // scheduler — a racing submit either beat the discard (rejected below)
  // or sees kClosed and rejects its own ticket. Batches already in the
  // ready queue are unaffected: the workers drain and resolve them.
  queue_.close();
  std::vector<std::pair<Pending, std::size_t>> queued = queue_.discard();
  for (auto& [index, pending] : inflight) {
    pending.promise.set_exception(error);
  }
  for (auto& [pending, lane] : queued) {
    pending.promise.set_exception(error);
  }
  {
    std::lock_guard lock(state_mutex_);
    failed_ = true;
    for (auto& [index, pending] : inflight) {
      ++class_stats_[static_cast<std::size_t>(pending.request.priority)]
            .failed;
      outstanding_.erase(pending.seq);
      ++completed_;
    }
    for (auto& [pending, lane] : queued) {
      ++class_stats_[lane].failed;
      outstanding_.erase(pending.seq);
      ++completed_;
    }
  }
  inflight.clear();
  drained_cv_.notify_all();
}

void Server::exec_begin(std::size_t r, Seconds predicted) {
  {
    std::lock_guard lock(watch_mutex_);
    Replica& self = *replicas_[r];
    self.exec_active = true;
    self.stall_flagged = false;
    self.exec_start = std::chrono::steady_clock::now();
    self.exec_predicted = predicted;
  }
}

void Server::exec_end(std::size_t r) {
  {
    std::lock_guard lock(watch_mutex_);
    replicas_[r]->exec_active = false;
    replicas_[r]->stall_flagged = false;
  }
  replicas_[r]->stalled_now.store(false, std::memory_order_relaxed);
}

void Server::watchdog_loop() {
  // Poll a few times per grace period; the floor keeps a zero/small grace
  // from busy-spinning.
  const auto poll = std::chrono::duration<double>(
      std::max(0.001, opt_.watchdog_grace.value * 0.25));
  std::unique_lock lock(watch_mutex_);
  for (;;) {
    watch_cv_.wait_for(lock, poll, [&] { return watch_stop_; });
    if (watch_stop_) return;
    const auto now = std::chrono::steady_clock::now();
    // One scan covers every replica's slot: two simultaneously wedged
    // replicas are two distinct stall episodes, each counted once.
    for (const auto& replica : replicas_) {
      Replica& rep = *replica;
      if (!rep.exec_active || rep.stall_flagged) continue;
      const double age = seconds_between(rep.exec_start, now);
      // The prediction is ACCELERATOR-model time — far below host wall
      // time — so the grace floor dominates the threshold by design; the
      // multiplier term only matters for genuinely enormous batches.
      const double threshold =
          opt_.watchdog_grace.value +
          opt_.watchdog_multiplier * rep.exec_predicted.value;
      if (age > threshold) {
        rep.stall_flagged = true;  // one stall episode, one count
        rep.stalled_now.store(true, std::memory_order_relaxed);
        rep.stalls.fetch_add(1, std::memory_order_relaxed);
        watchdog_stalls_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

}  // namespace swat
