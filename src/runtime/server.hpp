// swat::Server — the asynchronous continuous-batching serving front-end,
// with SLO classes, deadline-aware shedding, a stall watchdog, and a
// sharded engine-replica pool behind one admission queue.
//
// Real serving traffic does not arrive as one request list: requests show
// up one at a time, concurrently, and each caller wants its own answer as
// soon as possible. Server is the admission side of that workload:
//
//   submit(request) ──▶ class-aware AdmissionQueue ──▶ scheduler thread
//     │ interactive lane drained first,                  │ deadline shed
//     │ bulk aged in (never starved),                    │ BatchFormer
//     │ kShedBulk sheds bulk at the                      │   (class-pure
//     │ watermark under overload                         │    batches; caps
//     │                                                  │    + latency
//     │                                                  │    budget cuts)
//     ▼                                                  ▼
//   Ticket (std::future)                      dispatch: append each cut
//     ▲                                       batch to the one FIFO
//     │ promise fulfilled                     ready queue
//     │                                                  │
//     │   ┌─ replica 0: BatchExecutor+Engine ◀── pull ───┤
//     └───┤  replica 1: BatchExecutor+Engine ◀── pull ───┤
//         └─ replica N: BatchExecutor+Engine ◀── pull ───┘
//              ▲ per-replica watchdog slots
//
// submit() is thread-safe and returns a per-request Ticket (a
// std::future<RequestResult>) immediately; a background scheduler thread
// pops admitted requests — interactive first, bulk aged in every
// bulk_aging_interval pops so it is never starved — and feeds them to an
// incremental BatchFormer. A batch is cut when max_batch_requests /
// max_batch_tokens is hit or when the batch's predicted service time
// (BatchCostModel over the paper's stage-latency pipeline model) reaches
// the max_batch_latency budget. Partial batches are cut at the end of a
// claim round: when the scheduler claims with nothing pending, it notes
// how many requests are already queued behind that claim, pops at most
// that many more, then cuts every pending partial batch — at once if the
// arrival queue goes momentarily empty first (work conservation). A
// backlog therefore forms full batches, and no request, however sparse
// its length class, pends longer than one round under sustained load.
//
// Replica pool (num_replicas > 1): each cut batch is appended to one
// shared FIFO ready queue, and whichever live replica is idle pulls its
// front — placement follows actual completion order, not a prediction.
// Each replica owns a BatchExecutor + Engine reading replica 0's one
// read-only weight pack, a ThreadPool pinned to its own core group of the
// allowed cpuset (discover_topology().partition(N); the process-wide pool
// when there are more replicas than allowed CPUs), and a worker thread
// that pulls from the ready queue. Dispatch claim-ahead is bounded by
// replica_queue_depth: the ready queue holds fewer than
// max(depth * live replicas, idle live replicas) batches. At the default
// 0 the scheduler only claims from the admission queue when a replica is
// idle, which preserves the single-engine claim order (interactive-first
// pops, watermark backpressure) exactly; small depths pipeline batch
// formation with execution. Because every formed batch's outputs are a
// pure function of the batch (see the determinism contract below) and
// replicas are built from the same config/seed, WHICH replica executes a
// batch can never change any result bit.
//
// Overload and failure semantics (docs/ARCHITECTURE.md "Overload &
// failure semantics"):
//   * Backpressure / shedding: the admission queue is bounded
//     (queue_capacity). At the bound, OverflowPolicy::kBlock parks the
//     submitter, kReject fails the ticket, and kShedBulk — the overload
//     policy — rejects BULK once occupancy reaches shed_watermark while
//     interactive keeps admitting up to full capacity; nothing blocks.
//     Admission is pool-wide: one front-end queue, however many replicas.
//   * Deadlines: a request may carry a deadline (or inherit
//     default_deadline). A ticket whose deadline the cost model predicts
//     unmeetable is failed with DeadlineExceeded BEFORE compute is spent:
//     at submit when the predicted service time alone exceeds it, and at
//     claim when waiting has consumed the slack. A request served past
//     its deadline still returns its result and is counted
//     deadline_missed.
//   * Watchdog: when watchdog_multiplier > 0, a watchdog thread scans
//     every replica's executing-batch slot and flags a replica stalled
//     once its batch overruns watchdog_grace + watchdog_multiplier *
//     predicted — surfaced per replica through health().replicas[i] and
//     stats().replicas[i], and rolled up in the top-level counters. Two
//     simultaneously wedged replicas are two stall episodes.
//   * Failure isolation, batch level: an executor failure fails exactly
//     that batch's tickets and the replica keeps serving. A member whose
//     output holds a NaN or Inf fails only its own ticket
//     (std::runtime_error naming the first bad element, counted failed).
//   * Failure isolation, replica level: a replica death (the
//     "replica.execute" fault crossing, or any escape from the claim
//     path) rejects only the batch that replica had claimed, QUARANTINES
//     the replica (ReplicaStats::quarantined, per-replica health
//     kFailed), and the pool keeps serving: queued batches sit in the
//     shared ready queue, where the survivors pull them. Top-level health
//     degrades to kStalled, not kFailed. Only when the LAST replica dies
//     (or the scheduler itself dies, e.g. the "dispatch.place" crossing)
//     does the server close admission, cleanly reject every in-flight and
//     queued ticket (drain() returns, nothing hangs), and report kFailed.
//
// Determinism contract: WHICH batch a request lands in — and which
// replica runs it — depends on arrival timing (that is the point of
// continuous batching); WHAT the request's output and counters are does
// not. Every replica's BatchExecutor guarantees every member of every
// formed batch is bit-identical to a solo Encoder::forward run, for any
// SWAT_THREADS, arrival order, SLO class mix, replica count, and batch
// cut (tests/test_server.cpp, tests/test_replica_pool.cpp) — scheduling
// policy decides which requests are served and when, never what a served
// request's output is. Timing-dependent fields (batch_index, queue_delay,
// turnaround) are explicitly excluded from that guarantee.
//
// Shutdown: shutdown() (and the destructor) closes admission, lets the
// scheduler finish everything already admitted, lets the replicas drain
// the ready queue, and joins all threads — every ticket is always
// completed or rejected, never leaked or hung.
//
// submit_many partial-reject semantics: a burst is admitted strictly in
// order, one ticket per request, and each ticket resolves exactly once.
// Under kReject / kShedBulk admission the queue can fill (or cross the
// shed watermark) partway through the burst, so EARLIER tickets may serve
// while LATER ones reject — there is no all-or-nothing transaction, by
// design: shedding exists to keep absorbing what still fits.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/concurrent_queue.hpp"
#include "common/topology.hpp"
#include "runtime/cost_model.hpp"
#include "runtime/executor.hpp"
#include "runtime/stats.hpp"

namespace swat {

struct ServerOptions {
  BatchingOptions batching;
  /// Bound on requests admitted but not yet claimed by the scheduler.
  std::size_t queue_capacity = 1024;
  /// What submit() does when the admission queue is full: park the caller
  /// (kBlock, backpressure), fail the ticket (kReject, load shedding), or
  /// shed by class (kShedBulk: bulk rejected at shed_watermark,
  /// interactive only at full capacity, nothing ever blocks).
  OverflowPolicy admission = OverflowPolicy::kBlock;
  /// kShedBulk only: the fraction of queue_capacity at which bulk is
  /// shed. The headroom above it is reserved for interactive admission.
  double shed_watermark = 0.75;
  /// Serve one waiting bulk request after this many consecutive
  /// interactive pops — the aging knob that keeps priority admission from
  /// starving bulk entirely.
  std::size_t bulk_aging_interval = 4;
  /// Deadline applied to requests that do not carry their own
  /// (InferenceRequest::deadline == 0). Zero means no default.
  Seconds default_deadline{0.0};
  /// Stall threshold multiplier: the watchdog flags a replica stalled
  /// once its executing batch's age exceeds watchdog_grace +
  /// watchdog_multiplier * predicted service time (BatchCostModel). Zero
  /// disables the watchdog; when enabled it must be >= 1 (a threshold
  /// below the prediction itself would flag every healthy batch).
  double watchdog_multiplier = 0.0;
  /// Absolute floor added to the stall threshold, absorbing host
  /// scheduling noise the accelerator-time prediction knows nothing about.
  Seconds watchdog_grace{0.25};
  /// Engine replicas behind the pool. 1 (the default) is the
  /// single-engine server on the process-wide thread pool. N > 1 executes
  /// up to N batches concurrently, each on its own BatchExecutor + Engine:
  /// the allowed cpuset is partitioned into one core group per replica,
  /// each replica runs on a ThreadPool pinned to its group, and all of
  /// them read replica 0's one weight pack. With more replicas than
  /// allowed CPUs every replica stays on the process-wide pool.
  std::size_t num_replicas = 1;
  /// Batches the dispatcher may hold in the ready queue per live replica,
  /// beyond the batches the replicas are executing. At the default 0 the
  /// scheduler claims from the admission queue only when a replica is
  /// idle — requests wait in the class-aware admission queue, preserving
  /// the single-engine interactive-first claim order and watermark
  /// backpressure exactly. Depths >= 1 pipeline batch formation with
  /// execution (higher goodput under load); the cost is that a
  /// claimed-ahead request can no longer be reordered by class or shed at
  /// admission.
  std::size_t replica_queue_depth = 0;

  /// Rejects inconsistent options with actionable messages
  /// (std::invalid_argument).
  void validate() const;
};

class Server {
 public:
  /// A per-request claim ticket: resolves to the request's result, or
  /// rethrows the rejection/failure that prevented serving it
  /// (DeadlineExceeded, FaultInjectedError, std::runtime_error shed...).
  using Ticket = std::future<RequestResult>;

  /// Validates `cfg` (via the engines) and `opt`, compiles the weights
  /// once (replica 0 packs, the others share that pack), and starts the
  /// replica workers, scheduler, and (if enabled) watchdog threads.
  explicit Server(model::EncoderConfig cfg, ServerOptions opt = {});
  ~Server();  // shutdown()
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admit one request under its SLO class. Thread-safe. The ticket always
  /// resolves: with the result once its batch ran, or with an exception if
  /// the request was malformed (wrong shape, a NaN/Inf element, or a
  /// negative or NaN deadline: std::invalid_argument, counted as shed),
  /// shed at admission, predicted (or observed) to miss its deadline,
  /// failed by its batch's executor or replica, given a non-finite output,
  /// or submitted after shutdown. A served request's output is its own
  /// input buffer (BatchExecutor::execute_in_place): the result's
  /// output.data() is the pointer the submitted input held.
  Ticket submit(InferenceRequest request);

  /// Admit a burst. Equivalent to submit() in order; with kReject or
  /// kShedBulk admission, earlier tickets in the burst may serve while
  /// later ones reject (see the partial-reject semantics above). Every
  /// returned ticket resolves exactly once.
  std::vector<Ticket> submit_many(std::vector<InferenceRequest> requests);

  /// Block until every request admitted so far has resolved — served,
  /// shed, or rejected. New submissions during drain() extend the wait;
  /// a concurrent shutdown() (or scheduler/pool failure) that discards
  /// queued requests resolves their tickets with clean rejections, so
  /// drain() returns instead of waiting on work that will never run.
  void drain();

  /// Stop admission, serve everything already admitted (scheduler first,
  /// then the ready queue), join all threads. Idempotent and
  /// thread-safe. After shutdown, submit() returns rejected tickets.
  void shutdown();

  /// Snapshot of the cumulative totals over everything served so far.
  /// Batches complete in scheduler order, so model_flops (a
  /// non-associative double sum) may differ from a caller's own summation
  /// order by rounding; all integer fields are exact. Only SERVED requests
  /// are accumulated — shed and failed tickets are ledgered in stats()
  /// instead.
  RuntimeTotals totals() const;

  /// Snapshot of the serving ledger: per-class
  /// submitted/admitted/served/shed/deadline counters, per-replica
  /// dispatch/serve/quarantine counters (stats().replicas[i]),
  /// queue depth, oldest-pending age, batches, watchdog stall episodes.
  /// The identities it obeys are documented on ClassStats and
  /// ReplicaClassStats (runtime/stats.hpp): per replica,
  /// dispatched == served + failed + executing-now, and replica
  /// served/deadline_missed sums match the front-end class counters.
  ServerStats stats() const;

  /// The watchdog's liveness snapshot, per replica and rolled up:
  /// kHealthy / kStalled (an executing batch overran the stall threshold,
  /// or a replica is quarantined while the pool keeps serving) / kFailed
  /// (serving stopped: scheduler died or every replica died — all
  /// tickets cleanly rejected) / kShutdown, plus per-replica executing
  /// batch ages (health().replicas[i]) and the admission backlog.
  ServerHealth health() const;

  /// Shape classes compiled and activation-arena floats bound, summed over
  /// replicas (each replica's executor holds one arena at its largest
  /// class's high water).
  std::size_t plan_count() const;
  std::size_t plan_arena_floats() const;
  /// Packed-weight floats held across replicas: the one shared pack,
  /// counted once (sharing replicas report 0) — the single-engine
  /// footprint at any replica count.
  std::size_t packed_weight_floats() const;
  const model::Encoder& encoder() const;
  const ServerOptions& options() const { return opt_; }

 private:
  struct Pending {
    InferenceRequest request;
    std::promise<RequestResult> promise;
    std::chrono::steady_clock::time_point admitted;
    Seconds deadline{};     ///< effective deadline (0 = none)
    std::uint64_t seq = 0;  ///< admission sequence (oldest-pending ledger)
  };

  /// A cut batch bound to its member tickets — the unit the dispatcher
  /// queues and a replica worker pulls.
  struct ReadyBatch {
    BatchPlanEntry entry;
    std::vector<Pending> members;  ///< one per entry.request_indices slot
    Seconds predicted{};           ///< cost-model price (watchdog threshold)
  };

  /// One engine replica. Fields are grouped by the lock that guards them;
  /// the three domains are never held together.
  struct Replica {
    // Immutable after construction. `pool` is declared before `executor`
    // so destruction tears the executor down first — an engine never
    // outlives the pool its runs are bound to. Null pool / empty
    // core_group = the process-wide pool (one replica, or the fallback).
    std::unique_ptr<ThreadPool> pool;  ///< pinned per-replica pool
    CpuSet core_group;                 ///< the CPUs `pool` pins to
    std::unique_ptr<BatchExecutor> executor;
    std::thread worker;
    /// This replica's worker thread pinning itself at the top of
    /// replica_loop (0 or 1). stats() adds the pool's own
    /// pinned_workers() count on top when mirroring into ReplicaStats,
    /// so late-arriving pin confirmations are never undercounted.
    std::atomic<int> pinned_threads{0};

    // --- guarded by pool_mutex_ ---
    bool executing = false;  ///< worker holds a claimed batch
    bool dead = false;       ///< quarantined; its worker stops pulling

    // --- guarded by watch_mutex_ (the watchdog's per-replica slot) ---
    bool exec_active = false;
    bool stall_flagged = false;  ///< this episode already counted
    std::chrono::steady_clock::time_point exec_start;
    Seconds exec_predicted{};

    // --- lock-free mirrors for health()/stats() ---
    std::atomic<bool> stalled_now{false};
    std::atomic<std::int64_t> stalls{0};
  };

  void scheduler_loop();
  /// Park until the ready queue has room (or the pool died) — the claim
  /// gate that keeps requests in the class-aware admission queue instead
  /// of the claimed-ahead FIFO ready queue.
  void wait_for_dispatch_room();
  /// pool_mutex_ held: the dispatcher's wait predicate — the ready queue
  /// holds fewer than max(replica_queue_depth * live, idle live) batches,
  /// or no replica is live (dispatch_batch reports that).
  bool dispatch_unblocked() const;
  /// Price the batch, extract its members from `inflight`, and append it
  /// to the ready queue (blocking until it has room). Throws —
  /// scheduler-fatal — on the "dispatch.place" crossing or when every
  /// replica is dead; members are back in `inflight` so scheduler_failed
  /// rejects them.
  void dispatch_batch(BatchPlanEntry entry,
                      std::map<std::size_t, Pending>& inflight);
  /// Replica worker body: pull and execute until the pool stops and no
  /// work remains, or this replica dies.
  void replica_loop(std::size_t r);
  /// Pop the ready queue's front for replica `r` and mark it executing,
  /// waiting while the queue is empty. Empty optional once pool_stop_ is
  /// set and the queue has drained.
  std::optional<ReadyBatch> next_batch(std::size_t r);
  /// Execute a claimed batch on replica `r`, resolve its tickets, and mark
  /// the replica idle (waking the dispatcher and drain()). Executor
  /// failures are contained here (fail the batch, replica keeps serving);
  /// nothing escapes short of replica death.
  void run_on_replica(std::size_t r, ReadyBatch& batch);
  /// Replica `r` died claiming/running `batch`: reject exactly that
  /// batch's tickets and quarantine the replica — or, if it was the last
  /// live replica, close admission and reject everything still pending
  /// (the ready queue, then the admission backlog).
  void replica_failed(std::size_t r, ReadyBatch batch,
                      std::exception_ptr error) noexcept;
  /// The scheduler died: close admission, cleanly reject every in-flight
  /// and still-queued ticket with `error`, mark health kFailed. Nothing
  /// hangs; drain() returns.
  void scheduler_failed(std::exception_ptr error,
                        std::map<std::size_t, Pending>& inflight) noexcept;
  void watchdog_loop();
  void exec_begin(std::size_t r, Seconds predicted);
  void exec_end(std::size_t r);

  ServerOptions opt_;
  /// Prices requests for the latency budget, deadline slack, and the
  /// watchdog stall threshold.
  std::unique_ptr<BatchCostModel> cost_model_;
  AdmissionQueue<Pending, kPriorityClasses> queue_;
  /// The engine replicas. The vector itself is immutable after
  /// construction (workers index into it); per-replica fields follow the
  /// lock domains documented on Replica.
  std::vector<std::unique_ptr<Replica>> replicas_;

  mutable std::mutex state_mutex_;  ///< guards the ledger below
  std::condition_variable drained_cv_;
  RuntimeTotals totals_;
  ClassStats class_stats_[kPriorityClasses];
  std::vector<ReplicaStats> replica_stats_;  ///< one per replica
  std::size_t admitted_ = 0;
  std::size_t completed_ = 0;
  std::uint64_t next_seq_ = 0;
  /// Admission time of every admitted-but-unresolved request, keyed by
  /// admission sequence — begin() is the oldest (stats/health age).
  std::map<std::uint64_t, std::chrono::steady_clock::time_point>
      outstanding_;
  bool failed_ = false;  ///< serving stopped; health() reports kFailed

  /// Pool domain: the ready queue, replica liveness and the dispatcher's
  /// room wait. Never held together with state_mutex_ or watch_mutex_.
  mutable std::mutex pool_mutex_;
  std::condition_variable pool_cv_;
  /// Cut batches not yet pulled by a replica, oldest first.
  std::deque<ReadyBatch> ready_;
  std::size_t live_replicas_ = 0;
  bool pool_stop_ = false;

  // Watchdog: workers stamp their executing batch into their replica's
  // slot; the watchdog thread compares each slot's age against the
  // cost-model stall threshold.
  mutable std::mutex watch_mutex_;
  std::condition_variable watch_cv_;
  bool watch_stop_ = false;
  std::atomic<std::int64_t> watchdog_stalls_{0};

  std::mutex shutdown_mutex_;  ///< serializes shutdown()/~Server
  std::thread scheduler_;
  std::thread watchdog_;
};

}  // namespace swat
