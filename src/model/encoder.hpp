// Transformer encoder stack (post-LN, GELU FFN) with a pluggable attention
// backend — the host model that SWAT accelerates.
#pragma once

#include <span>
#include <vector>

#include "model/attention_layer.hpp"
#include "model/layer_norm.hpp"
#include "model/linear.hpp"

namespace swat::model {

struct EncoderConfig {
  std::int64_t d_model = 768;
  std::int64_t num_heads = 12;
  std::int64_t ffn_mult = 4;
  int layers = 8;
  AttentionBackend backend = AttentionBackend::kWindowExact;
  SwatConfig swat;  ///< attention pattern + datapath parameters
  std::uint64_t weight_seed = 1;
  /// Element type of the packed weight panels: fp32-only (validate()
  /// rejects anything else). The field stays only until its last reader,
  /// the serving benchmark (perfbench/), stops setting it.
  Dtype pack_dtype = Dtype::kFp32;
  /// Element type of the K/V tiles the fused attention kernel streams:
  /// fp32-only (validate() rejects anything else). The field stays only
  /// until its last reader, the serving benchmark (perfbench/), stops
  /// setting it.
  Dtype stream_dtype = Dtype::kFp32;

  /// Longformer-base geometry on the paper's standard SWAT build.
  static EncoderConfig longformer_base(AttentionBackend backend);

  /// Reject inconsistent geometries with actionable messages
  /// (std::invalid_argument): positive d_model/num_heads with
  /// d_model % num_heads == 0, ffn_mult >= 1, layers >= 1, pack_dtype
  /// and stream_dtype == kFp32, and swat.head_dim == d_model /
  /// num_heads (plus SwatConfig::validate()), so a bad config fails at
  /// construction/compile time, not rows deep into a forward pass. Called
  /// by Encoder and Engine::compile.
  void validate() const;
};

/// Per-layer activation scratch for the plan-driven encoder path. One
/// instance is shared by every layer of a stack (layers run serially and
/// each overwrites all of it); each buffer reshapes in place per batch, so
/// once bound at the high-water shape the path stops allocating. Only the
/// attention workspace's q, k and v are whole-batch (attention writes its
/// per-head outputs over q): everything after attention runs per row tile
/// in per-thread scratch (EncoderLayer::forward_batch_into).
struct EncoderLayerScratch {
  MhaWorkspace mha;
  /// Not bound and not written by the layer: a landing buffer for callers
  /// that run attention().forward_batch_into on their own (the serving
  /// benchmark's traced replay). Counted by capacity_floats() once used.
  MatrixF attn_out;

  void bind(const EncoderConfig& cfg, std::int64_t max_tokens);
  std::size_t capacity_floats() const;
};

/// The full activation arena of a compiled plan. bind() binds the shared
/// layer scratch only — q, k and v, 3 x d_model floats per row — because
/// every layer runs over its own input (Encoder::forward_in_place).
struct EncoderArena {
  EncoderLayerScratch scratch;
  /// The copy of a const input that Encoder::forward_batch_into runs in
  /// place; not bound by bind(), grown on first use.
  MatrixF ping;
  /// Not used by the encoder: a second layer-I/O buffer for callers that
  /// run the layers one by one out of place (the serving benchmark's
  /// traced replay).
  MatrixF pong;

  void bind(const EncoderConfig& cfg, std::int64_t max_tokens);
  /// Floats held by every buffer, ping and pong included once used.
  std::size_t capacity_floats() const;
};

/// One encoder layer: X + MHA -> LN -> + FFN -> LN (post-norm).
class EncoderLayer {
 public:
  EncoderLayer(const EncoderConfig& cfg, Rng& rng);

  /// One sequence through the layer (the oracle entry point).
  MatrixF forward(const MatrixF& x) const;

  /// Batched forward over a packed ragged batch — the layer's one forward
  /// core (see MultiHeadAttention::forward_batch_into for the offsets
  /// convention, the stats contract and the bit-identity guarantee).
  /// Attention runs over the whole batch into `scratch`; the rest of the
  /// layer — output projection + residual, LN1, FFN expand + GELU,
  /// contract + residual, LN2 — runs as one parallel_for over row tiles
  /// (see RowTiling), each tile's intermediates in a per-thread
  /// tls_workspace() lease small enough to stay in L2. The per-head
  /// attention outputs overwrite scratch.mha.q. The result lands in `out`
  /// (reshaped in place), which may be `x` itself: the Q/K/V projections
  /// read all of x before attention starts, and each row tile reads its
  /// own x rows (the W_o residual) before it writes those rows, and no
  /// other tile's. Neither x nor out may be scratch.mha's q, k or v.
  /// Every element keeps the fma chain and epilogue of the
  /// whole-matrix sequence MHA -> add_rows_into -> LN1 ->
  /// forward_gelu_into -> forward_residual_into -> LN2, so the bytes are
  /// the same for any tiling and thread count (tests/test_engine.cpp).
  void forward_batch_into(const MatrixF& x,
                          std::span<const std::int64_t> offsets,
                          std::span<AttentionStats> stats,
                          EncoderLayerScratch& scratch, MatrixF& out) const;

  const MultiHeadAttention& attention() const { return mha_; }
  const LayerNorm& norm1() const { return norm1_; }
  const Linear& ffn_expand() const { return ffn1_; }
  const Linear& ffn_contract() const { return ffn2_; }
  const LayerNorm& norm2() const { return norm2_; }
  std::int64_t parameters() const;

  /// Total packed floats across every Linear in the layer.
  std::size_t packed_floats() const;

 private:
  /// Everything after attention, one row tile at a time (see
  /// forward_batch_into); `out` is already x's shape and may be x.
  void post_attention_into(const MatrixF& concat, const MatrixF& x,
                           MatrixF& out) const;

  MultiHeadAttention mha_;
  LayerNorm norm1_;
  Linear ffn1_;
  Linear ffn2_;
  LayerNorm norm2_;
};

/// The full stack — an immutable value. Every Linear packs its weights at
/// construction and nothing changes after, so one `const Encoder` may run
/// forward calls from many threads at once, and copying an Encoder shares
/// its weight packs read-only (the replica pool's shared pack).
class Encoder {
 public:
  explicit Encoder(EncoderConfig cfg);

  /// Forward over one sequence's token embeddings X (seq_len x d_model) —
  /// the oracle every batched and served path is held bit-identical to.
  MatrixF forward(const MatrixF& x) const;

  /// Batched forward — the stack's one forward core. `x` stacks the
  /// token embeddings of `offsets.size() - 1` independent sequences,
  /// sequence s occupying rows [offsets[s], offsets[s+1]).
  /// Position-independent layers (projections, FFN, LayerNorm, residuals,
  /// GELU) run over all packed rows at once; attention fans out over
  /// (sequence, head) tasks and never crosses a sequence boundary.
  /// Sequence s's output rows are bit-identical to forward() on that
  /// sequence alone, for any thread count and any batch composition — the
  /// property the serving runtime's tests assert.
  ///
  /// `per_sequence_stats` (empty, or one slot per sequence — zeroed here)
  /// receives each sequence's attention counters summed over layers, so
  /// per-request traffic stays separable from the batch total.
  ///
  /// This is the in-place core: `x` holds the packed input and receives
  /// the stack's output, each layer writing over its own input, so no
  /// layer output is ever materialized into another matrix. Every
  /// intermediate lives in x and the caller's arena (q, k and v); the
  /// compiled Engine passes a persistent arena, which is what makes its
  /// steady state allocation-free. `x` must not be arena.scratch's q, k
  /// or v.
  void forward_in_place(MatrixF& x, std::span<const std::int64_t> offsets,
                        std::span<AttentionStats> per_sequence_stats,
                        EncoderArena& arena) const;

  /// forward_in_place over a copy of `packed` in arena.ping (grown on
  /// first use). The returned reference is arena.ping, valid until the
  /// arena is next written. `packed` must not be arena.ping.
  const MatrixF& forward_batch_into(
      const MatrixF& packed, std::span<const std::int64_t> offsets,
      std::span<AttentionStats> per_sequence_stats,
      EncoderArena& arena) const;

  const EncoderConfig& config() const { return cfg_; }
  std::int64_t parameters() const;

  /// Total packed floats across every Linear weight in the stack (packed
  /// at construction) — Engine::packed_weight_floats.
  std::size_t packed_floats() const;

  const EncoderLayer& layer(int i) const {
    SWAT_EXPECTS(i >= 0 && i < static_cast<int>(layers_.size()));
    return layers_[static_cast<std::size_t>(i)];
  }

 private:
  EncoderConfig cfg_;
  std::vector<EncoderLayer> layers_;
};

/// GELU activation (tanh approximation in its sigmoid form; swat::gelu),
/// exposed for tests.
float gelu(float x);

/// The row tiles the post-attention block of an `n`-row batch runs as on a
/// pool of `threads` threads: tile t covers rows [begin(t), end(t)).
/// Tiles are whole 6-row register tiles of the packed GEMM (the last one
/// takes the remainder), at most PackedWeight::kRowGrain (60) rows, and
/// differ by at most one register tile; their count is the smallest
/// multiple of `threads` that keeps tiles within 60 rows, but never more
/// than the register tiles. Exposed for tests.
struct RowTiling {
  RowTiling(std::int64_t n, int threads);

  std::int64_t rows = 0;      ///< n
  std::int64_t groups = 0;    ///< register tiles: ceil(n / 6)
  std::int64_t tiles = 0;     ///< 0 when n == 0
  std::int64_t max_rows = 0;  ///< no tile is taller (sizes its scratch)

  std::int64_t begin(std::int64_t t) const;
  std::int64_t end(std::int64_t t) const { return begin(t + 1); }
};

}  // namespace swat::model
