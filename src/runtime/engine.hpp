// swat::Engine / swat::ExecutionPlan — the compiled, zero-allocation
// execution path for the encoder stack.
//
// Production inference separates *plan* from *execute*: shapes are resolved
// once, buffers are bound once, and the per-request path only computes.
// Here that split is:
//
//   Engine::compile(cfg, max_tokens)
//     validates the config (EncoderConfig::validate), builds the weights,
//     packs every Linear weight once into the panel-major layout the
//     packed GEMM microkernel streams (weights are engine-wide constants,
//     shared by every plan — packed_weight_floats() reports the
//     footprint), walks the encoder geometry once, and sizes every
//     intermediate a packed batch of up to max_tokens rows needs — Q/K/V
//     projections, the per-head concat staging, LN outputs, the GELU
//     hidden buffer, residual outputs, and the two ping-pong layer-I/O
//     buffers — binding them into a persistent activation arena
//     (ExecutionPlan).
//
//   Engine::run(packed, offsets[, stats])
//     executes the whole stack through the allocation-free *_into paths
//     (Linear/LayerNorm/MHA/EncoderLayer), returning a reference into the
//     plan's arena. No layer materializes a fresh matrix.
//
// Guarantees (asserted by tests/test_engine.cpp and tests/test_runtime.cpp):
//   * each sequence's output rows are bit-identical to Encoder::forward on
//     that sequence alone, and its counters to a one-sequence run, for any
//     SWAT_THREADS and any batch composition;
//   * with a host attention backend and a pure-window config, a warmed
//     plan's steady state performs ZERO heap allocations (a global
//     operator-new counter asserts this, single-threaded — with workers the
//     only allocation is the pool's O(1) fork-join bookkeeping, independent
//     of batch size). The SWAT-simulator backend allocates inside the
//     simulator by design (it is a value-level model), and pattern-
//     augmented window configs allocate their per-length AttentionPattern.
#pragma once

#include <cstdint>
#include <span>

#include "common/thread_pool.hpp"
#include "model/encoder.hpp"

namespace swat {

/// The compiled artifact: a persistent activation arena bound to one
/// high-water packed-batch shape. Plans are cheap to mint from an Engine
/// (one per bucket shape in the serving runtime) and independent — two
/// plans never share buffers. The encoder underneath is immutable, so runs
/// on distinct plans of one Engine may proceed concurrently; a plan's
/// arena is the only per-call state, so one plan serves one run at a time.
class ExecutionPlan {
 public:
  ExecutionPlan() = default;

  /// Largest packed row count this plan's arena was bound for. Running a
  /// bigger batch through it is a contract violation (the arena would have
  /// to grow, silently breaking the zero-allocation promise).
  std::int64_t max_tokens() const { return max_tokens_; }

  /// Total floats bound into the arena at compile time — the plan's answer
  /// to "what does serving this shape cost in activation memory". Fixed at
  /// make_plan(); running smaller batches reshapes the buffers logically
  /// but never shrinks (or grows) the bound capacity.
  std::size_t arena_floats() const { return bound_floats_; }

 private:
  friend class Engine;
  std::int64_t max_tokens_ = 0;
  std::size_t bound_floats_ = 0;
  // The geometry the arena was shaped for; Engine::run checks it so a plan
  // minted by a differently-shaped engine fails loudly instead of silently
  // regrowing the arena (which would void the zero-allocation guarantee).
  std::int64_t d_model_ = 0;
  std::int64_t ffn_mult_ = 0;
  model::EncoderArena arena_;
};

class Engine {
 public:
  /// An engine with weights but no default plan — for callers that size
  /// plans themselves (the serving runtime mints one per bucket shape).
  /// Validates `cfg` like compile(). When `pool` is non-null, every
  /// parallel fan-out this engine issues — weight packing at construction
  /// and every kernel inside run() — dispatches to that pool instead of
  /// the process-wide one (via ScopedPoolBinding; results are
  /// bit-identical either way). The encoder is built under that binding,
  /// so with a replica's pinned pool the pack fill's first touch lands the
  /// private PackedWeight pages on the replica's NUMA node. The pool must
  /// outlive the engine; nullptr keeps today's global-pool behavior.
  explicit Engine(model::EncoderConfig cfg, ThreadPool* pool = nullptr);

  /// An engine serving a copy of `pack_prototype`'s encoder — the replica
  /// pool's shared read-only pack (ServerOptions::share_weight_pack). The
  /// copy shares the prototype's immutable weight packs, so it cannot
  /// differ from the prototype's model, and the packs live as long as any
  /// engine holding them (the prototype need not outlive this engine).
  /// packed_weight_floats() reports 0 here — the footprint is attributed
  /// to the prototype. `pool` as above; a sharing engine reads the pack
  /// wherever the prototype first-touched it, so under partitioned
  /// placement sharing trades one replica-local copy per replica for
  /// cross-node reads (the share_weight_pack memory-vs-locality tradeoff,
  /// documented in docs/ARCHITECTURE.md). `pool` has no default, so this
  /// is never the copy constructor.
  Engine(const Engine& pack_prototype, ThreadPool* pool);

  /// Compile an engine: validate `cfg`, build the encoder weights, and
  /// bind the default plan for packed batches of up to `max_tokens` rows.
  static Engine compile(model::EncoderConfig cfg, std::int64_t max_tokens);

  /// Mint an additional plan (same geometry, different high-water shape) —
  /// the serving runtime compiles one per bucket shape.
  ExecutionPlan make_plan(std::int64_t max_tokens) const;

  /// Execute a packed ragged batch through the default plan. `offsets` and
  /// `stats` follow the Encoder::forward_batch_into contract (stats: one
  /// slot per sequence or empty). The returned reference points into the
  /// plan's arena and is valid until the next run() on the same plan.
  const MatrixF& run(const MatrixF& packed,
                     std::span<const std::int64_t> offsets,
                     std::span<model::AttentionStats> stats = {});

  /// Execute through a caller-held plan. The plan must have been minted by
  /// an engine with the same activation geometry (d_model, ffn_mult) —
  /// enforced, since a mismatched arena would silently reallocate.
  const MatrixF& run(ExecutionPlan& plan, const MatrixF& packed,
                     std::span<const std::int64_t> offsets,
                     std::span<model::AttentionStats> stats = {}) const;

  const model::Encoder& encoder() const { return encoder_; }
  const ExecutionPlan& plan() const { return plan_; }

  /// Floats held by the panel-major packed weights (packed eagerly at
  /// construction, shared by every plan this engine mints — weight memory
  /// is per-engine, activation memory per-plan).
  std::size_t packed_weight_floats() const { return packed_weight_floats_; }

 private:
  model::Encoder encoder_;
  ExecutionPlan plan_;          ///< default plan, bound at compile()
  std::size_t packed_weight_floats_ = 0;
  ThreadPool* pool_ = nullptr;  ///< bound around pack + run; null = global
};

}  // namespace swat
