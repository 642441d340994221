// Multi-head attention layer with a pluggable attention backend.
//
// The backend selects where the core attention computation runs:
//   * kDenseReference — host float32 dense softmax attention (oracle);
//   * kWindowExact    — host float32 exact banded attention (the algorithm
//                       SWAT implements, no hardware effects);
//   * kFusedStreaming — host float32 fused streaming attention in the
//                       paper's Eq. 1 operation order (QK -> exp -> SV in
//                       one pass, division deferred): the serving kernel.
//                       Computes directly over the packed projections —
//                       no per-head Q/K/V staging copies, no score matrix,
//                       O(window x head_dim) per-thread scratch. Pure
//                       sliding-window configs only (global/random cores
//                       and dilation are rejected at validation). Eq. 1
//                       skips the softmax max subtraction, so scaled
//                       logits must stay inside float exp range (see
//                       attention/fused.hpp); kWindowExact is the
//                       numerically-armored fallback;
//   * kSwatSimulator  — the SWAT functional simulator: each head is
//                       scheduled onto the accelerator model, including the
//                       fp16 datapath rounding and the off-chip traffic
//                       accounting.
//
// Comparing backends layer-for-layer is how the repository demonstrates
// end-to-end what replacing the GPU attention kernel with SWAT does to a
// real model's activations.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "attention/reference.hpp"
#include "model/linear.hpp"
#include "swat/config.hpp"
#include "swat/functional_sim.hpp"

namespace swat::model {

enum class AttentionBackend {
  kDenseReference,
  kWindowExact,
  kFusedStreaming,
  kSwatSimulator,
};

struct AttentionStats {
  Bytes swat_offchip_traffic;       ///< accumulated across heads (SWAT only)
  std::int64_t swat_core_loads = 0;
  std::int64_t heads_run = 0;

  AttentionStats& operator+=(const AttentionStats& o) {
    swat_offchip_traffic += o.swat_offchip_traffic;
    swat_core_loads += o.swat_core_loads;
    heads_run += o.heads_run;
    return *this;
  }
};

/// Reusable staging for one batched attention call, owned by the caller
/// (in practice: the compiled ExecutionPlan's arena). Every matrix is
/// reshaped in place per call — Matrix::reshape retains capacity, so a
/// workspace cycled at or below its high-water batch shape never
/// reallocates.
struct MhaWorkspace {
  MatrixF q;  ///< packed Q projection (rows x d_model)
  MatrixF k;  ///< packed K projection (rows x d_model)
  MatrixF v;  ///< packed V projection (rows x d_model)
  /// Per-head outputs of the MHA oracle (forward_batch_into), which keeps
  /// Q intact. Not bound by bind(): the encoder layer writes its per-head
  /// outputs over q instead, so serving never touches it. Counted by
  /// capacity_floats() once used.
  MatrixF concat;

  // SWAT-simulator staging: one entry per (sequence, head) task. The
  // simulator itself still allocates per-head core state internally (it is
  // a value-level model, not a serving hot path), so only the host
  // backends are allocation-free.
  std::vector<attn::HeadInput> sim_inputs;
  std::vector<FunctionalResult> sim_results;

  /// Grow q, k and v to the high-water shape for `max_tokens` packed rows
  /// so subsequent calls at or below it never reallocate.
  void bind(std::int64_t max_tokens, std::int64_t d_model);

  /// Total floats currently held (introspection for plan sizing/tests).
  std::size_t capacity_floats() const;
};

class MultiHeadAttention {
 public:
  /// `swat_cfg.head_dim` must equal d_model / num_heads when the SWAT
  /// backend is selected; for the window backends the band is taken from
  /// swat_cfg's window parameters so all three backends agree on the
  /// pattern.
  MultiHeadAttention(std::int64_t d_model, std::int64_t num_heads,
                     AttentionBackend backend, SwatConfig swat_cfg, Rng& rng);

  /// Y = W_o . concat_heads(attend(W_q X, W_k X, W_v X)) for one
  /// sequence: forward_batch_into on a one-sequence batch with a throwaway
  /// workspace (the oracle entry point).
  MatrixF forward(const MatrixF& x) const;

  /// Batched forward over a packed ragged batch — the one forward core:
  /// `x` stacks the rows of `offsets.size() - 1` independent sequences,
  /// sequence s occupying rows [offsets[s], offsets[s+1]). The Q/K/V and
  /// output projections run as single GEMMs over all packed rows;
  /// attention fans the (sequence, head) tasks out over the thread pool,
  /// so a batch exposes sequences * heads -way parallelism where forward()
  /// exposes heads-way. All batch-level staging lives in `ws` and the
  /// result lands in `out` (reshaped in place; must alias neither x nor a
  /// workspace buffer). With a host backend and a pure-window config the
  /// call is allocation-free once ws, out, and the per-thread staging have
  /// seen the batch's high-water shape.
  ///
  /// Sequence s's output rows are bit-identical to forward() on that
  /// sequence alone, for any thread count and any batch composition (every
  /// kernel computes each output row with a fixed reduction order, and
  /// attention never crosses an offsets boundary).
  ///
  /// Per-sequence counters are *added* into `stats` — the only counter
  /// channel. Contract: `stats.size()` must be exactly `offsets.size() - 1`
  /// (one slot per sequence) or 0 (skip per-sequence accounting) —
  /// anything else is a precondition violation (std::invalid_argument),
  /// asserted here rather than silently mis-attributing counters. The
  /// layer itself holds no per-call state, so concurrent calls on one
  /// instance are safe given distinct `ws`, `out` and `stats`.
  void forward_batch_into(const MatrixF& x,
                          std::span<const std::int64_t> offsets,
                          std::span<AttentionStats> stats, MhaWorkspace& ws,
                          MatrixF& out) const;

  /// forward_batch_into up to, not including, the output projection: the
  /// Q/K/V projections land in ws.q/k/v, the per-head outputs in `out`
  /// (reshaped to x.rows() x d_model), and counters are added to `stats`
  /// as above. `out` may be ws.q itself: every attention task reads its
  /// own (sequence, head) block of Q before it writes that block, and no
  /// task reads another's, so the per-head outputs overwrite Q with the
  /// same bytes a separate matrix would get. That is how the encoder layer
  /// calls it, applying output_projection() itself, fused with the
  /// residual, one row tile at a time. `out` must be neither x, ws.k nor
  /// ws.v. forward_batch_into is this call into ws.concat followed by
  /// output_projection().forward_into(ws.concat, out).
  void forward_concat_into(const MatrixF& x,
                           std::span<const std::int64_t> offsets,
                           std::span<AttentionStats> stats, MhaWorkspace& ws,
                           MatrixF& out) const;

  /// W_o, the projection forward_batch_into applies to ws.concat.
  const Linear& output_projection() const { return wo_; }

  /// Total packed floats across the four projection weights (packed at
  /// construction) — the engine's footprint accounting.
  std::size_t packed_floats() const;

  AttentionBackend backend() const { return backend_; }
  std::int64_t num_heads() const { return num_heads_; }
  std::int64_t head_dim() const { return d_model_ / num_heads_; }
  std::int64_t parameters() const;

 private:
  /// Host-side backends only (dense / window-exact); the SWAT backend goes
  /// through FunctionalSimulator::run_heads_into so the per-head fan-out
  /// and the stats live in one place per backend. `z` is the caller's
  /// (thread-local) staging matrix, reshaped in place.
  void attend_one_head_into(const attn::HeadInput& head, MatrixF& z) const;

  std::int64_t d_model_;
  std::int64_t num_heads_;
  AttentionBackend backend_;
  SwatConfig swat_cfg_;
  std::optional<FunctionalSimulator> sim_;
  Linear wq_;
  Linear wk_;
  Linear wv_;
  Linear wo_;
};

}  // namespace swat::model
