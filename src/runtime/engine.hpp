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
//     whole-batch intermediate a packed batch of up to max_tokens rows
//     needs — the Q/K/V projections, 3 x d_model floats per row — binding
//     them into a persistent activation arena (ExecutionPlan). Attention
//     writes its per-head outputs over Q, every layer writes its output
//     over its input, and everything after attention (output projection,
//     LNs, FFN) runs per row tile in per-thread tls_workspace() scratch,
//     so nothing else takes arena rows.
//
//   Engine::run_in_place(plan, x, offsets[, stats])
//     executes the whole stack over the caller's packed batch `x` through
//     the allocation-free *_into paths (Linear/LayerNorm/MHA/EncoderLayer),
//     leaving the output in x. No layer materializes a fresh matrix.
//   Engine::run([plan,] packed, offsets[, stats])
//     the same over a copy of a const batch in the plan's arena, returning
//     a reference to it.
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
/// (the serving runtime keeps one per executor, rebound when a larger
/// shape class arrives) and independent — two plans never share buffers.
/// The encoder underneath is immutable, so runs on distinct plans of one
/// Engine may proceed concurrently; a plan's arena is the only per-call
/// state, so one plan serves one run at a time.
class ExecutionPlan {
 public:
  ExecutionPlan() = default;

  /// Largest packed row count this plan's arena was bound for. Running a
  /// bigger batch through it is a contract violation (the arena would have
  /// to grow, silently breaking the zero-allocation promise).
  std::int64_t max_tokens() const { return max_tokens_; }

  /// Total floats bound into the arena at compile time (q, k and v: 3 x
  /// d_model per row) — the plan's answer to "what does serving this shape
  /// cost in activation memory". Fixed at make_plan(); running smaller
  /// batches reshapes the buffers logically but never shrinks (or grows)
  /// the bound capacity. Engine::run's input copy is not counted here.
  std::size_t arena_floats() const { return bound_floats_; }

 private:
  friend class Engine;
  std::int64_t max_tokens_ = 0;
  std::size_t bound_floats_ = 0;
  // The geometry the arena was shaped for; Engine::run checks it so a plan
  // minted by a differently-shaped engine fails loudly instead of silently
  // regrowing the arena (which would void the zero-allocation guarantee).
  std::int64_t d_model_ = 0;
  model::EncoderArena arena_;
};

class Engine {
 public:
  /// An engine with weights but no default plan — for callers that size
  /// plans themselves (the serving runtime's BatchExecutor binds one at
  /// its largest shape class).
  /// Validates `cfg` like compile(). When `pool` is non-null, every
  /// parallel fan-out this engine issues — weight packing at construction
  /// and every kernel inside run() — dispatches to that pool instead of
  /// the process-wide one (via ScopedPoolBinding; results are
  /// bit-identical either way). The encoder is built under that binding,
  /// so with a replica's pinned pool the pack fill's first touch lands the
  /// private PackedWeight pages on the replica's NUMA node. The pool must
  /// outlive the engine; nullptr keeps today's global-pool behavior.
  explicit Engine(model::EncoderConfig cfg, ThreadPool* pool = nullptr);

  /// An engine serving a copy of `pack_prototype`'s encoder — how a
  /// multi-replica Server builds replicas 1..N-1 around replica 0's one
  /// read-only pack. The copy shares the prototype's immutable weight
  /// packs, so it cannot differ from the prototype's model, and the packs
  /// live as long as any engine holding them (the prototype need not
  /// outlive this engine). packed_weight_floats() reports 0 here — the
  /// footprint is attributed to the prototype. `pool` as above; a sharing
  /// engine reads the pack wherever the prototype first-touched it
  /// (docs/ARCHITECTURE.md "Weight memory"). `pool` has no default, so
  /// this is never the copy constructor.
  Engine(const Engine& pack_prototype, ThreadPool* pool);

  /// Compile an engine: validate `cfg`, build the encoder weights, and
  /// bind the default plan for packed batches of up to `max_tokens` rows.
  static Engine compile(model::EncoderConfig cfg, std::int64_t max_tokens);

  /// Mint an additional plan (same geometry, different high-water shape) —
  /// how the serving runtime grows its one arena to a larger shape class.
  ExecutionPlan make_plan(std::int64_t max_tokens) const;

  /// Execute a packed ragged batch through the default plan. `offsets` and
  /// `stats` follow the Encoder::forward_in_place contract (stats: one
  /// slot per sequence or empty). `packed` is copied into the plan's arena
  /// (its ping buffer, grown on first use) and run in place there; the
  /// returned reference points at it and is valid until the next run on
  /// the same plan.
  const MatrixF& run(const MatrixF& packed,
                     std::span<const std::int64_t> offsets,
                     std::span<model::AttentionStats> stats = {});

  /// Execute through a caller-held plan. The plan must have been minted by
  /// an engine with the same activation geometry (d_model) —
  /// enforced, since a mismatched arena would silently reallocate.
  const MatrixF& run(ExecutionPlan& plan, const MatrixF& packed,
                     std::span<const std::int64_t> offsets,
                     std::span<model::AttentionStats> stats = {}) const;

  /// Execute through a caller-held plan over `x` itself: the output
  /// replaces the packed input, and the plan's arena holds only q, k and v.
  /// How the serving executor runs a batch with no copy. Deliberately not
  /// an overload of run(): a caller holding a non-const batch must not get
  /// it overwritten by picking a different overload.
  void run_in_place(ExecutionPlan& plan, MatrixF& x,
                    std::span<const std::int64_t> offsets,
                    std::span<model::AttentionStats> stats = {}) const;

  const model::Encoder& encoder() const { return encoder_; }
  const ExecutionPlan& plan() const { return plan_; }

  /// Floats held by the panel-major packed weights (packed eagerly at
  /// construction, shared by every plan this engine mints — weight memory
  /// is per-engine, activation memory per-plan).
  std::size_t packed_weight_floats() const { return packed_weight_floats_; }

 private:
  /// The run preconditions: `plan` was compiled, for this geometry, for at
  /// least `rows` rows.
  void expect_fits(const ExecutionPlan& plan, std::int64_t rows) const;

  model::Encoder encoder_;
  ExecutionPlan plan_;          ///< default plan, bound at compile()
  std::size_t packed_weight_floats_ = 0;
  ThreadPool* pool_ = nullptr;  ///< bound around pack + run; null = global
};

}  // namespace swat
