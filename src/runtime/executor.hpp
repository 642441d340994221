// The shared serving core: request/result types and BatchExecutor — the
// pack/run/unpack engine behind the serving front-end, swat::Server
// (server.hpp), whose scheduler thread cuts batches continuously with
// BatchFormer and whose replicas each execute them here.
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
// and its one activation arena — the encoder itself is immutable — so
// concurrent submitters can never race a lazy compile. The plan counters
// are atomics, readable while a batch runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
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

/// Executes formed batches: pack the member requests into one ragged
/// matrix, run it in place through the executor's one ExecutionPlan,
/// unpack per-request outputs and counters. Each request is served in its
/// own input buffer (execute_in_place): a one-request batch skips the
/// staging and runs in place in it, a packed batch unpacks each request's
/// rows back into it.
///
/// Like SWAT's one set of on-chip buffers sized for its largest tile, the
/// executor holds a single activation arena, bound at the high-water row
/// count class * bucket_width of the largest bucket shape class
/// ceil(rows / bucket_width) served so far. A batch of a larger class
/// grows it once (the old arena is released before the new one is bound,
/// so peak memory never holds both); every smaller class reuses it, since
/// reshape retains capacity. Batches beyond max_batch_tokens (oversized
/// singletons) run through a transient plan that is dropped afterwards, so
/// one huge one-off document cannot pin a proportionally huge arena.
class BatchExecutor {
 public:
  /// Validates the config (via Engine) and the batching options. `pool`
  /// is forwarded to the Engine: non-null routes weight packing and every
  /// batch's kernels onto that pool (a multi-replica Server's per-replica
  /// pinned pool; results bit-identical either way). The pool must
  /// outlive the executor; nullptr = the process-wide pool.
  BatchExecutor(model::EncoderConfig cfg, BatchingOptions batching,
                ThreadPool* pool = nullptr);

  /// An executor serving a copy of `pack_prototype`'s encoder, sharing its
  /// read-only weight pack instead of building a private one (how a
  /// multi-replica Server builds replicas 1..N-1; see Engine's sharing
  /// constructor). packed_weight_floats() reports 0 here, the footprint
  /// being the prototype's. `pool` as above — but note execution reads the shared
  /// pack, wherever its pages live.
  BatchExecutor(const BatchExecutor& pack_prototype, BatchingOptions batching,
                ThreadPool* pool);

  /// Execute one formed batch, consuming its requests. `requests[i]` is
  /// the request packed at entry slot i (rows [entry.offsets[i],
  /// entry.offsets[i+1]) — its row count must match); the requests must be
  /// distinct. Returns one result per slot with id, output, and counters
  /// filled; `batch_index` and `queue_delay` are left to the serving
  /// front-end, which owns their meaning.
  ///
  /// Consumption contract: each request's input matrix is moved into its
  /// result, so `results[i].output` is the very buffer `requests[i]->input`
  /// held (same data() pointer) and the request's input is left moved-from:
  /// read nothing from it. No large block is allocated per request. If the
  /// call throws, the inputs are unspecified (possibly consumed): the
  /// caller must not re-execute them. Ids and lengths are read before
  /// anything is consumed. Safe to call from multiple threads (serialized
  /// internally).
  std::vector<RequestResult> execute_in_place(
      const BatchPlanEntry& entry,
      std::span<InferenceRequest* const> requests);

  /// execute_in_place over copies of `inputs`: the caller's requests are
  /// left untouched and may be executed again. A distinct name rather than
  /// a constness overload, since a vector<InferenceRequest*> converts to
  /// either span.
  std::vector<RequestResult> execute(
      const BatchPlanEntry& entry,
      std::span<const InferenceRequest* const> inputs);

  const Engine& engine() const { return engine_; }
  const model::Encoder& encoder() const { return engine_.encoder(); }
  const BatchingOptions& batching() const { return batching_; }
  /// Bucket shape classes compiled so far, and the floats bound into the
  /// one arena serving them — stable across repeated identical workloads,
  /// which tests assert to prove the arena is reused rather than rebound.
  /// Never blocked by a running batch.
  std::size_t plan_count() const { return plan_count_.load(); }
  std::size_t plan_arena_floats() const { return plan_arena_floats_.load(); }
  /// Packed-weight footprint of the engine (per-engine, independent of the
  /// arena — see Engine::packed_weight_floats).
  std::size_t packed_weight_floats() const {
    return engine_.packed_weight_floats();
  }

 private:
  /// The plan serving a packed batch of `rows` rows: plan_, grown first if
  /// the batch's class exceeds its bound, or `transient` for an oversized
  /// batch. Called under run_mutex_.
  ExecutionPlan& acquire(std::int64_t rows, ExecutionPlan& transient);

  Engine engine_;
  BatchingOptions batching_;

  // Per-batch state reused across execute() calls (guarded by run_mutex_);
  // reshape() retains the backing capacity, so serving stops allocating
  // once the high-water batch shape has been seen.
  std::mutex run_mutex_;
  MatrixF packed_;  ///< multi-request batches only
  std::vector<model::AttentionStats> seg_stats_;
  ExecutionPlan plan_;                  ///< the one arena
  std::set<std::int64_t> classes_;      ///< shape classes compiled
  std::atomic<std::size_t> plan_count_{0};
  std::atomic<std::size_t> plan_arena_floats_{0};
};

}  // namespace swat
