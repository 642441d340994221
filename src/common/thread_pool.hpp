// A small fork-join thread pool with a `parallel_for` primitive, used to
// parallelize the host-side kernel hot paths (GEMM row blocks, sliding-chunk
// tiles, per-head attention, per-row softmax/SV phases).
//
// Design constraints, in order:
//  1. Determinism: parallel_for only partitions an index range; every index
//     is processed exactly once by exactly one thread, and the per-index
//     computation must not depend on the partition. All kernels in this
//     repository obey that, so results are bit-identical for any thread
//     count — a property the tests assert for thread counts {1, 4}.
//  2. Re-entrancy: a parallel_for issued from inside a worker (e.g. a
//     parallel GEMM called from a parallel per-head loop) degrades to a
//     serial inline call instead of deadlocking the pool.
//  3. Zero cost when disabled: with one thread (the default when
//     `SWAT_THREADS=1` or the machine has one core) the body runs inline
//     with no synchronization at all.
//
// Thread count resolution: `SWAT_THREADS` environment variable if set
// (hardened parse — see parse_thread_count), otherwise
// std::thread::hardware_concurrency(); override at runtime with
// set_num_threads().
//
// Placement: pools are also instantiable directly (the process-wide
// instance() stays the default) with an optional CpuSet — workers pin
// themselves to it via pthread_setaffinity_np (a documented no-op off
// Linux). A multi-replica Server builds one pinned pool per engine
// replica and routes that replica's kernel fan-outs through it with a
// ScopedPoolBinding: the free parallel_for / parallel_for_2d templates
// dispatch to the thread's bound pool when one is active, so no kernel
// call site changes and the bit-exactness contract (results independent
// of thread count AND of which pool ran the partition) is untouched.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "common/topology.hpp"

namespace swat {

class ThreadPool {
 public:
  /// The process-wide pool. Lazily constructed on first use.
  static ThreadPool& instance();

  /// A standalone pool of `n` threads (workers + the caller; n >= 1).
  /// When `affinity` is non-empty every worker pins itself to it at
  /// startup (group-level pinning: each worker may run on any CPU of
  /// the set — the set, typically one replica's core group, is the
  /// locality unit, not individual CPUs). Pinning failures are counted,
  /// not fatal: pinned_workers() reports how many stuck.
  explicit ThreadPool(int n, CpuSet affinity = {});

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The CpuSet the workers pin to (empty = unpinned).
  const CpuSet& affinity() const { return affinity_; }

  /// Workers whose set-affinity call succeeded (0 on non-Linux hosts or
  /// for unpinned pools; at most num_threads() - 1 — the caller thread
  /// is not the pool's to pin).
  int pinned_workers() const {
    return pinned_workers_.load(std::memory_order_relaxed);
  }

  /// Total number of threads that execute work (workers + the caller).
  int num_threads() const {
    return num_threads_.load(std::memory_order_relaxed);
  }

  /// Resize the pool. `n >= 1`; n == 1 means "everything inline"; the
  /// pool's affinity set is retained across resizes. CONTRACT: must not
  /// be called while a parallel_for is in flight on this pool from any
  /// thread — the worker set is torn down and rebuilt, which would
  /// strand the in-flight caller. The misuse is enforced, not just
  /// documented: the active-job check under the pool mutex throws
  /// std::invalid_argument (SWAT_EXPECTS) before any teardown happens,
  /// so a racing resize fails loudly and the running parallel_for
  /// completes untouched (regression-tested in tests/test_thread_pool
  /// .cpp, SetNumThreadsDuringParallelForIsRejected).
  void set_num_threads(int n);

  /// Invoke `fn(ctx, chunk_begin, chunk_end)` over a partition of
  /// [begin, end). `grain` is the minimum number of indices per chunk;
  /// ranges not longer than `grain` (or with one thread, or issued from
  /// inside a worker) run inline on the calling thread. Blocks until the
  /// whole range is done. The callable is a raw (fn, ctx) pair rather than
  /// a std::function — the free-function `parallel_for` template routes
  /// here so a dispatched fork-join costs exactly one Job allocation (the
  /// shared_ptr that keeps stragglers safe) and nothing for the callable,
  /// and an inline run performs zero heap allocations.
  void parallel_for_raw(std::int64_t begin, std::int64_t end,
                        std::int64_t grain,
                        void (*fn)(void*, std::int64_t, std::int64_t),
                        void* ctx);

 private:
  void start_workers(int n);
  void stop_workers();
  void worker_loop();

  // One fork-join job: chunks are claimed via an atomic cursor so faster
  // threads steal more of the range; `done` counts completed chunks. The
  // first exception thrown by any chunk is captured and rethrown on the
  // calling thread (remaining chunks are skipped, not aborted mid-flight).
  // The callable is a raw (fn, ctx) pair — the caller blocks until the job
  // completes, so the context outlives every chunk by construction.
  struct Job {
    std::int64_t begin = 0;
    std::int64_t chunk = 1;
    std::int64_t num_chunks = 0;
    std::int64_t end = 0;
    void (*fn)(void*, std::int64_t, std::int64_t) = nullptr;
    void* ctx = nullptr;
    std::atomic<std::int64_t> next{0};
    std::atomic<std::int64_t> done{0};
    std::mutex error_mutex;
    std::exception_ptr error;
  };

  void run_chunks(Job& job);

  std::atomic<int> num_threads_{1};
  CpuSet affinity_;  ///< immutable after construction
  std::atomic<int> pinned_workers_{0};
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Job> job_;       // current job, guarded by mutex_
  std::uint64_t job_epoch_ = 0;    // bumped per job so sleeping workers skip
  bool stopping_ = false;
};

/// Convenience wrappers over ThreadPool::instance().
int num_threads();
void set_num_threads(int n);

/// Hardened SWAT_THREADS parsing (unit-tested in tests/test_placement
/// .cpp). Returns `fallback` when `text` is null; otherwise the parsed
/// count with out-of-contract values clamped instead of flowing through
/// unchecked: non-numeric / empty / trailing-junk input falls back,
/// zero and negatives clamp to 1, and overflow (or anything above the
/// 1024-thread rail) clamps to 1024. Every clamp/fallback writes a
/// message into *warning (cleared otherwise) — the pool's first
/// construction prints it to stderr exactly once.
int parse_thread_count(const char* text, int fallback,
                       std::string* warning = nullptr);

/// The pool the free parallel_for/parallel_for_2d templates dispatch
/// to: the calling thread's bound pool while a ScopedPoolBinding is
/// active, else ThreadPool::instance(). Kernels never call this
/// directly — it exists so per-replica pinned pools reach every kernel
/// fan-out without touching any kernel call site.
ThreadPool& current_pool();

/// RAII thread-local pool binding: for its scope, the calling thread's
/// parallel_for/parallel_for_2d calls dispatch to `pool` instead of the
/// process-wide instance (nullptr = no-op, keep the current routing).
/// Bindings nest and restore the previous binding on destruction. Only
/// the constructing thread is affected — the binding is how Engine::run
/// routes one replica's kernels onto that replica's pinned pool.
class ScopedPoolBinding {
 public:
  explicit ScopedPoolBinding(ThreadPool* pool);
  ~ScopedPoolBinding();
  ScopedPoolBinding(const ScopedPoolBinding&) = delete;
  ScopedPoolBinding& operator=(const ScopedPoolBinding&) = delete;

 private:
  ThreadPool* prev_ = nullptr;
  bool active_ = false;
};

/// Fork-join over [begin, end) on an explicit pool. Accepts any
/// callable `body(chunk_begin, chunk_end)` without erasing it into a
/// std::function: ranges that run inline (one thread, range <= grain, or a
/// nested call from pool work) invoke the body directly and perform zero
/// heap allocations — the property the compiled execution plan's
/// steady-state guarantee (tests/test_runtime.cpp) stands on. Dispatched
/// ranges cost one Job allocation regardless of the body's capture size.
template <typename Body>
void parallel_for(ThreadPool& pool, std::int64_t begin, std::int64_t end,
                  std::int64_t grain, const Body& body) {
  // The inline-vs-dispatch decision (one thread, range <= grain, nested in
  // pool work) lives in parallel_for_raw; the thunk is a capture-less
  // lambda, so this call never boxes the body into a std::function and the
  // inline path performs zero heap allocations.
  pool.parallel_for_raw(
      begin, end, grain,
      [](void* ctx, std::int64_t b, std::int64_t e) {
        (*static_cast<const Body*>(ctx))(b, e);
      },
      const_cast<void*>(static_cast<const void*>(&body)));
}

/// Fork-join over [begin, end) on the calling thread's current pool —
/// the process-wide instance, or the bound per-replica pool while a
/// ScopedPoolBinding is active. Same contract as the explicit-pool
/// overload above; this is the form every kernel call site uses.
template <typename Body>
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const Body& body) {
  parallel_for(current_pool(), begin, end, grain, body);
}

/// Fork-join over a 2D tile grid: [0, rows) x [0, cols) cut into tiles of
/// at most row_grain x col_grain, each tile visited exactly once as
/// `body(row_begin, row_end, col_begin, col_end)`. The grid is flattened
/// row-tile-major onto parallel_for, so it inherits the pool's properties:
/// deterministic for any thread count (the partition of tiles over threads
/// varies, the tiles themselves do not), inline (and allocation-free) for
/// single-tile grids or nested calls, one Job allocation otherwise. This is
/// the fan-out of the packed-weight GEMM, whose output tiles are disjoint
/// (row panel x column panel) rectangles. Explicit-pool overload first;
/// the pool-less form routes through current_pool() like parallel_for.
template <typename Body>
void parallel_for_2d(ThreadPool& pool, std::int64_t rows,
                     std::int64_t row_grain, std::int64_t cols,
                     std::int64_t col_grain, const Body& body) {
  SWAT_EXPECTS(row_grain >= 1 && col_grain >= 1);
  if (rows <= 0 || cols <= 0) return;
  const std::int64_t row_tiles = (rows + row_grain - 1) / row_grain;
  const std::int64_t col_tiles = (cols + col_grain - 1) / col_grain;
  parallel_for(pool, 0, row_tiles * col_tiles, 1,
               [&](std::int64_t t0, std::int64_t t1) {
                 for (std::int64_t t = t0; t < t1; ++t) {
                   const std::int64_t rt = t / col_tiles;
                   const std::int64_t ct = t % col_tiles;
                   const std::int64_t r0 = rt * row_grain;
                   const std::int64_t c0 = ct * col_grain;
                   body(r0, std::min(r0 + row_grain, rows), c0,
                        std::min(c0 + col_grain, cols));
                 }
               });
}

template <typename Body>
void parallel_for_2d(std::int64_t rows, std::int64_t row_grain,
                     std::int64_t cols, std::int64_t col_grain,
                     const Body& body) {
  parallel_for_2d(current_pool(), rows, row_grain, cols, col_grain, body);
}

}  // namespace swat
