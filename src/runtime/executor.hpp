// The shared serving core: request/result types, the mutex-guarded
// ExecutionPlan cache, and BatchExecutor — the pack/run/unpack engine
// behind the serving front-end, swat::Server (server.hpp), whose scheduler
// thread cuts batches continuously with BatchFormer and whose replicas
// each execute them here.
//
// This is the one definition of "execute a formed batch", and the
// determinism guarantee lives exactly here: for ANY formed batch,
// each member request's output and counters are bit-identical to running
// that request alone through Encoder::forward (the engine/encoder kernels
// fix every reduction order and never cross an offsets boundary). Batch
// composition — however a scheduler decided to cut — affects latency only,
// never results.
//
// Thread safety: execution is serialized on an internal mutex, which guards
// the executor's reused staging (the packed input and per-sequence stats)
// and the cached plans' arenas — the encoder itself is immutable — and
// plan compilation is guarded by the PlanCache's own mutex, so concurrent
// submitters can never race a lazy compile.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <vector>

#include "runtime/batcher.hpp"
#include "runtime/engine.hpp"
#include "runtime/stats.hpp"

namespace swat {

/// Per-request accounting, separable from the batch it was served in.
struct RequestCounters {
  std::int64_t tokens = 0;
  /// Index of the packed batch that served this request, within the
  /// server's lifetime. Stamped by the server; -1 straight out of
  /// BatchExecutor::execute. Introspection for tests and the examples.
  std::int64_t batch_index = -1;
  /// Time the request spent admitted-but-unserved before its batch started
  /// executing. Stamped by the server; zero straight out of
  /// BatchExecutor::execute.
  Seconds queue_delay;
  /// Admission-to-completion wall time (queueing + batch formation + batch
  /// execution). Stamped by the server; zero straight out of
  /// BatchExecutor::execute. Timing-dependent, like queue_delay — excluded
  /// from the determinism contract. What the request's deadline is judged
  /// against.
  Seconds turnaround;

  // Attention counters measured by the model (SWAT backend only for the
  // traffic/load fields), summed over layers.
  Bytes swat_offchip_traffic;
  std::int64_t swat_core_loads = 0;
  std::int64_t heads_run = 0;

  /// Analytic per-request model cost (linear + attention + FFN FLOPs for
  /// this request's length; attention/flops.hpp), so throughput benches can
  /// report FLOP/s without touching measured counters.
  double model_flops = 0.0;
};

struct InferenceRequest {
  std::uint64_t id = 0;
  MatrixF input;  ///< seq_len x d_model token embeddings, seq_len >= 1
  /// SLO class (runtime/stats.hpp): interactive is drained first and never
  /// shed first; bulk is the class kShedBulk rejects at the watermark.
  Priority priority = Priority::kInteractive;
  /// Completion deadline measured from admission; zero means none (any
  /// ServerOptions::default_deadline applies instead); negative or NaN is
  /// malformed and Server::submit rejects it. A request the cost
  /// model predicts cannot meet its deadline is failed with
  /// DeadlineExceeded before compute is spent on it.
  Seconds deadline{0.0};
};

struct RequestResult {
  std::uint64_t id = 0;
  MatrixF output;  ///< seq_len x d_model encoder output
  RequestCounters counters;
};

/// Cumulative totals over everything the server has served
/// (Server::totals).
struct RuntimeTotals {
  std::int64_t requests = 0;
  std::int64_t tokens = 0;
  std::int64_t batches = 0;
  /// Packed-weight bytes streamed from memory by the GEMMs, priced as one
  /// full weight sweep per executed batch (every layer streams its whole
  /// pack once per batch regardless of batch size). Counted per batch like
  /// `batches`, so the accumulate() identity below is untouched.
  Bytes weight_stream_bytes;
  Bytes swat_offchip_traffic;
  std::int64_t swat_core_loads = 0;
  std::int64_t heads_run = 0;
  double model_flops = 0.0;

  /// Fold one served request in — the single definition of the "totals
  /// equal the field-wise sum of every RequestCounters" identity the
  /// server documents (batches is counted per batch, not here).
  void accumulate(const RequestCounters& counters) {
    ++requests;
    tokens += counters.tokens;
    swat_offchip_traffic += counters.swat_offchip_traffic;
    swat_core_loads += counters.swat_core_loads;
    heads_run += counters.heads_run;
    model_flops += counters.model_flops;
  }
};

/// Mutex-guarded cache of compiled ExecutionPlans, keyed by the batch's
/// shape class ceil(rows / bucket_width) and compiled for that class's
/// high-water row count, so every batch the batcher can emit in the class
/// fits, and repeated traffic reuses the arena. One max-class plan could
/// serve every smaller batch too (reshape retains capacity), but per-class
/// plans keep each arena right-sized to its traffic and are independent —
/// the prerequisite for running different-shape batches concurrently. The
/// cache is bounded: batches beyond max_batch_tokens (oversized singletons)
/// compile into caller-provided transient storage and are never cached, so
/// one huge one-off document cannot pin a proportionally huge arena for the
/// cache's lifetime. All entry points take the internal mutex — concurrent
/// submitters never race a lazy compile.
class PlanCache {
 public:
  /// `engine` must outlive the cache.
  PlanCache(const Engine& engine, std::int64_t bucket_width,
            std::int64_t max_batch_tokens);

  /// The plan serving a packed batch of `rows` rows. Cached per shape
  /// class; oversized batches compile into `transient` instead. References
  /// into the cache stay valid for the cache's lifetime (node-based map).
  ExecutionPlan& acquire(std::int64_t rows, ExecutionPlan& transient);

  /// Compiled plans currently cached (one per bucket shape class served so
  /// far) and their total bound arena footprint — stable across repeated
  /// identical workloads, which tests assert to prove plans are reused
  /// rather than recompiled.
  std::size_t plan_count() const;
  std::size_t plan_arena_floats() const;

 private:
  const Engine& engine_;
  const std::int64_t bucket_width_;
  const std::int64_t max_batch_tokens_;
  mutable std::mutex mutex_;
  std::map<std::int64_t, ExecutionPlan> plans_;  ///< shape class -> plan
};

/// Executes formed batches: pack the member requests into one ragged
/// matrix, run it through the shape class's cached ExecutionPlan, unpack
/// per-request outputs and counters.
class BatchExecutor {
 public:
  /// Validates the config (via Engine) and the batching options. `pool`
  /// is forwarded to the Engine: non-null routes weight packing and every
  /// batch's kernels onto that pool (the per-replica pinned pool under
  /// partitioned placement; results bit-identical either way). The pool
  /// must outlive the executor; nullptr = the process-wide pool.
  BatchExecutor(model::EncoderConfig cfg, BatchingOptions batching,
                ThreadPool* pool = nullptr);

  /// An executor serving a copy of `pack_prototype`'s encoder, sharing its
  /// read-only weight pack instead of building a private one (the replica
  /// pool's opt-in shared pack; see Engine's sharing constructor).
  /// packed_weight_floats() reports 0 here, the footprint being the
  /// prototype's. `pool` as above — but note execution reads the shared
  /// pack, wherever its pages live.
  BatchExecutor(const BatchExecutor& pack_prototype, BatchingOptions batching,
                ThreadPool* pool);

  /// Execute one formed batch. `inputs[i]` is the request packed at entry
  /// slot i (rows [entry.offsets[i], entry.offsets[i+1]) — its row count
  /// must match). Returns one result per slot with id, output, and
  /// counters filled; `batch_index` and `queue_delay` are left to the
  /// serving front-end, which owns their meaning. Safe to call from
  /// multiple threads (serialized internally).
  std::vector<RequestResult> execute(
      const BatchPlanEntry& entry,
      std::span<const InferenceRequest* const> inputs);

  const Engine& engine() const { return engine_; }
  const model::Encoder& encoder() const { return engine_.encoder(); }
  const BatchingOptions& batching() const { return batching_; }
  std::size_t plan_count() const { return cache_.plan_count(); }
  std::size_t plan_arena_floats() const { return cache_.plan_arena_floats(); }
  /// Packed-weight footprint of the engine (per-engine, shared by every
  /// cached plan — see Engine::packed_weight_floats).
  std::size_t packed_weight_floats() const {
    return engine_.packed_weight_floats();
  }

 private:
  Engine engine_;
  BatchingOptions batching_;
  PlanCache cache_;

  // Per-batch staging reused across execute() calls (guarded by
  // run_mutex_); reshape() retains the backing capacity, so serving stops
  // allocating staging once the high-water batch shape has been seen.
  std::mutex run_mutex_;
  MatrixF packed_;
  std::vector<model::AttentionStats> seg_stats_;
};

}  // namespace swat
